package vclock

import (
	"testing"
	"time"
)

// TestSchedulingPointsDoNotAllocate pins the zero-allocation contract of
// the per-operation hot path: every benchmark operation passes through
// Yield (the scheduling point) and most charge a Resource — neither may
// allocate at steady state, or millions of virtual operations per cell
// turn into GC pressure that skews host-side throughput.
func TestSchedulingPointsDoNotAllocate(t *testing.T) {
	sched := NewScheduler()
	w := sched.Register(NewClock())
	w.Begin()
	defer w.Done()
	if n := testing.AllocsPerRun(1000, func() {
		w.Clock().Advance(time.Microsecond)
		w.Yield()
	}); n != 0 {
		t.Errorf("Yield allocates %v per op, want 0", n)
	}

	r := NewResource("disk", 2)
	var now int64
	if n := testing.AllocsPerRun(1000, func() {
		now = r.Acquire(now, 100)
	}); n != 0 {
		t.Errorf("Resource.Acquire allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		now = r.AcquireSerial(now, 100)
	}); n != 0 {
		t.Errorf("Resource.AcquireSerial allocates %v per op, want 0", n)
	}
}
