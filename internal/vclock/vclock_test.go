package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * time.Microsecond)
	c.Advance(3 * time.Microsecond)
	if got := c.Now(); got != 8*time.Microsecond {
		t.Fatalf("Now() = %v, want 8µs", got)
	}
}

func TestClockAdvanceNegativeIgnored(t *testing.T) {
	c := NewClockAt(time.Millisecond)
	c.Advance(-time.Second)
	c.AdvanceNS(-5)
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms", got)
	}
}

func TestClockAdvanceToNeverRewinds(t *testing.T) {
	c := NewClockAt(100)
	c.AdvanceTo(50)
	if got := c.NowNS(); got != 100 {
		t.Fatalf("AdvanceTo rewound clock to %d", got)
	}
	c.AdvanceTo(250)
	if got := c.NowNS(); got != 250 {
		t.Fatalf("AdvanceTo(250) left clock at %d", got)
	}
}

func TestClockAdvanceToMonotoneProperty(t *testing.T) {
	// Property: for any sequence of AdvanceTo targets, the clock equals the
	// running maximum of the targets (and zero if all are negative).
	f := func(targets []int64) bool {
		c := NewClock()
		var max int64
		for _, tgt := range targets {
			c.AdvanceTo(tgt)
			if tgt > max {
				max = tgt
			}
			if c.NowNS() != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSingleChannelSerializes(t *testing.T) {
	r := NewResource("disk", 1)
	c1 := r.Acquire(0, 100)
	c2 := r.Acquire(0, 100)
	c3 := r.Acquire(0, 100)
	if c1 != 100 || c2 != 200 || c3 != 300 {
		t.Fatalf("completions = %d,%d,%d; want 100,200,300", c1, c2, c3)
	}
}

func TestResourceParallelChannels(t *testing.T) {
	r := NewResource("disk", 4)
	var last int64
	for i := 0; i < 4; i++ {
		last = r.Acquire(0, 100)
	}
	if last != 100 {
		t.Fatalf("4 requests on 4 channels should all finish at 100, got %d", last)
	}
	// Fifth request pipelines behind the earliest channel.
	if got := r.Acquire(0, 100); got != 200 {
		t.Fatalf("5th request completion = %d, want 200", got)
	}
}

func TestResourceIdleChannelStartsAtNow(t *testing.T) {
	r := NewResource("disk", 1)
	if got := r.Acquire(500, 100); got != 600 {
		t.Fatalf("completion = %d, want 600", got)
	}
}

func TestResourceAcquireSerialBarrier(t *testing.T) {
	r := NewResource("disk", 4)
	for i := 0; i < 4; i++ {
		r.Acquire(0, int64(100*(i+1))) // channels busy until 100..400
	}
	// A flush at t=0 must wait for the latest channel (400) and occupy all.
	if got := r.AcquireSerial(0, 50); got != 450 {
		t.Fatalf("serial completion = %d, want 450", got)
	}
	// Nothing can start before the barrier completes.
	if got := r.Acquire(0, 10); got != 460 {
		t.Fatalf("post-barrier completion = %d, want 460", got)
	}
}

func TestResourceStats(t *testing.T) {
	r := NewResource("disk", 1)
	r.Acquire(0, 100)
	r.Acquire(0, 100) // queues behind the first: backlog 100
	st := r.Stats()
	if st.Ops != 2 {
		t.Fatalf("ops = %d, want 2", st.Ops)
	}
	if st.BusyTime != 200*time.Nanosecond {
		t.Fatalf("busy = %v, want 200ns", st.BusyTime)
	}
	if st.MaxBacklog != 100*time.Nanosecond {
		t.Fatalf("backlog = %v, want 100ns", st.MaxBacklog)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("disk", 2)
	r.Acquire(0, 1000)
	r.Reset()
	st := r.Stats()
	if st.Ops != 0 || st.BusyTime != 0 {
		t.Fatalf("stats not cleared: %+v", st)
	}
	if got := r.Acquire(0, 10); got != 10 {
		t.Fatalf("channel occupancy not cleared, completion = %d", got)
	}
}

func TestResourceNeverCompletesBeforeNowPlusService(t *testing.T) {
	// Property: completion >= now + service, for any interleaving.
	f := func(arrivals []uint16, svc uint16) bool {
		r := NewResource("x", 3)
		for _, a := range arrivals {
			now := int64(a)
			c := r.Acquire(now, int64(svc))
			if c < now+int64(svc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestResourceConcurrentAcquire books one resource from eight workers
// the supported way — under a scheduler, one admitted at a time — and
// checks that every booking landed and that the run replays exactly.
func TestResourceConcurrentAcquire(t *testing.T) {
	run := func() (ResourceStats, time.Duration) {
		r := NewResource("disk", 2)
		g := NewGroup(0)
		g.Run(8, func(_ int, w *Worker) {
			c := w.Clock()
			for j := 0; j < 100; j++ {
				w.Yield()
				c.AdvanceTo(r.Acquire(c.NowNS(), 10))
			}
		})
		return r.Stats(), g.Elapsed()
	}
	st, elapsed := run()
	if st.Ops != 800 {
		t.Fatalf("ops = %d, want 800", st.Ops)
	}
	// 800 bookings of 10ns on 2 channels, all workers starting at 0.
	if elapsed != 4000 {
		t.Fatalf("elapsed = %v, want 4µs (two saturated channels)", elapsed)
	}
	if st2, e2 := run(); st2 != st || e2 != elapsed {
		t.Fatalf("replay differs: %+v/%v vs %+v/%v", st2, e2, st, elapsed)
	}
}

func TestGroupElapsedIsMaxWorker(t *testing.T) {
	g := NewGroup(0)
	a := g.NewWorker().Clock()
	b := g.NewWorker().Clock()
	a.Advance(3 * time.Millisecond)
	b.Advance(7 * time.Millisecond)
	if got := g.Elapsed(); got != 7*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 7ms", got)
	}
}

func TestGroupStartOffset(t *testing.T) {
	g := NewGroup(time.Second)
	w := g.NewWorker().Clock()
	if w.Now() != time.Second {
		t.Fatalf("worker starts at %v, want 1s", w.Now())
	}
	w.Advance(time.Millisecond)
	if got := g.Elapsed(); got != time.Millisecond {
		t.Fatalf("Elapsed = %v, want 1ms", got)
	}
}
