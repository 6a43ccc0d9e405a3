// Allocation regression tests for the trace recorder: the observability
// instrumentation is threaded through every hot path permanently, so a
// disabled (nil) recorder must add exactly zero allocations to the warm
// zero-alloc paths, and an enabled one must stay within a small fixed
// budget (the only allocator traffic is the amortized growth of the
// pre-sized event slice). The absolute numbers with tracing off remain
// gated by cmd/allocgate against ALLOC_budget.json in CI; these tests
// pin the recorder's *delta*.
package bento

import (
	"testing"

	"bento/internal/filebench"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
)

// inKernelAllocVariants carry the zero-alloc warm-path contract (FUSE
// makes a daemon round trip per op by design and is gated only by its
// own budget).
var inKernelAllocVariants = []string{
	harness.VariantBento,
	harness.VariantCKernel,
	harness.VariantExt4,
}

// traceAllocTarget mounts a fresh variant, with or without a recorder
// attached. Metrics=true is how bentobench enables tracing, so this
// exercises the same wiring.
func traceAllocTarget(t *testing.T, variant string, traced bool) (filebench.Target, *kernel.Task) {
	t.Helper()
	o := harness.Quick()
	o.Metrics = traced
	tg, err := harness.NewTarget(variant, o)
	if err != nil {
		t.Fatal(err)
	}
	task := tg.K.NewTask("tracealloc")
	if traced != (task.Rec() != nil) {
		t.Fatalf("traced=%v but task recorder=%v", traced, task.Rec())
	}
	return tg, task
}

func warmFileT(t *testing.T, tg filebench.Target, task *kernel.Task, path string, pages int) {
	t.Helper()
	data := make([]byte, pages*fsapi.PageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := tg.M.WriteFile(task, path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := tg.M.ReadFile(task, path); err != nil {
		t.Fatal(err)
	}
}

// measureWarmOps reports allocs/op for warm read4k, stat, and write4k
// on one mounted target.
func measureWarmOps(t *testing.T, tg filebench.Target, task *kernel.Task) (read, stat, write float64) {
	t.Helper()
	const pages = 64
	warmFileT(t, tg, task, "/afile", pages)
	f, err := tg.M.Open(task, "/afile", fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tg.M.Close(task, f); err != nil {
			t.Fatal(err)
		}
	}()
	buf := make([]byte, fsapi.PageSize)
	var opErr error
	var off int64
	next := func() int64 {
		o := off
		off += fsapi.PageSize
		if off >= pages*fsapi.PageSize {
			off = 0
		}
		return o
	}
	read = testing.AllocsPerRun(200, func() {
		if _, err := f.PRead(task, buf, next()); err != nil {
			opErr = err
		}
	})
	stat = testing.AllocsPerRun(200, func() {
		if _, err := tg.M.Stat(task, "/afile"); err != nil {
			opErr = err
		}
	})
	write = testing.AllocsPerRun(200, func() {
		if _, err := f.PWrite(task, buf, next()); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	return read, stat, write
}

// TestDisabledRecorderAddsZeroAllocs is the nil-recorder half of the
// contract: with tracing off (the default), the instrumented warm paths
// allocate exactly what ALLOC_budget.json says they always did — zero.
func TestDisabledRecorderAddsZeroAllocs(t *testing.T) {
	for _, variant := range inKernelAllocVariants {
		t.Run(variant, func(t *testing.T) {
			tg, task := traceAllocTarget(t, variant, false)
			read, stat, write := measureWarmOps(t, tg, task)
			if read != 0 || stat != 0 || write != 0 {
				t.Fatalf("disabled recorder allocates: read4k=%.2f stat=%.2f write4k=%.2f allocs/op, want 0",
					read, stat, write)
			}
		})
	}
}

// TestEnabledRecorderFixedBudget is the enabled half: recording spans
// and counters on the warm paths stays within a small fixed budget per
// op — steady-state appends go into the pre-grown event slice, so the
// only allocator traffic is its amortized doubling.
func TestEnabledRecorderFixedBudget(t *testing.T) {
	const budget = 2.0 // allocs/op, averaged over 200 runs
	for _, variant := range inKernelAllocVariants {
		t.Run(variant, func(t *testing.T) {
			tg, task := traceAllocTarget(t, variant, true)
			read, stat, write := measureWarmOps(t, tg, task)
			if read > budget || stat > budget || write > budget {
				t.Fatalf("enabled recorder over budget: read4k=%.2f stat=%.2f write4k=%.2f allocs/op, budget %.1f",
					read, stat, write, budget)
			}
		})
	}
}
