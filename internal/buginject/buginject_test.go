package buginject

import (
	"reflect"
	"strings"
	"testing"
)

func TestMemoryAndTypeBugsCaught(t *testing.T) {
	for _, kind := range []BugKind{UseAfterFree, DoubleFree, MissingFree, OutOfBounds, ForgedPointer, UncheckedError} {
		o := Inject(kind)
		if !o.Caught {
			t.Errorf("%s escaped the framework: %s", kind, o.Detail)
		}
	}
}

func TestDeadlockNotPrevented(t *testing.T) {
	// The paper's remaining 7%: the framework must NOT claim to prevent
	// deadlocks.
	o := Inject(DeadlockBug)
	if o.Caught {
		t.Fatalf("deadlock reported as prevented: %s", o.Detail)
	}
	// What the lock-order check reports instead: the inversion, naming
	// both semaphores.
	for _, want := range []string{"lock-order", "semaphore 1", "semaphore 2"} {
		if !strings.Contains(o.Detail, want) {
			t.Errorf("deadlock detail %q does not mention %q", o.Detail, want)
		}
	}
}

// TestRunAllIsDeterministic: every outcome, details included, is the
// same on every run.
func TestRunAllIsDeterministic(t *testing.T) {
	first := RunAll()
	for i := 0; i < 3; i++ {
		if again := RunAll(); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d differs:\n%v\nfirst:\n%v", i+2, again, first)
		}
	}
}

func TestRunAllCoversEveryKind(t *testing.T) {
	outs := RunAll()
	if len(outs) != len(AllKinds) {
		t.Fatalf("got %d outcomes for %d kinds", len(outs), len(AllKinds))
	}
	caught := 0
	for _, o := range outs {
		if o.Caught {
			caught++
		}
	}
	// Everything except the deadlock class is caught — the experimental
	// rendering of the paper's 93%/7% split.
	if caught != len(AllKinds)-1 {
		t.Fatalf("caught %d of %d; want all but the deadlock", caught, len(AllKinds))
	}
}
