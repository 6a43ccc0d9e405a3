package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Scheduler is a deterministic coordinator for a fixed set of simulated
// workers. It turns the old free-running-goroutines-with-a-pace-window
// execution model into a sequential discrete-event loop: at any moment at
// most one worker runs, and whenever the running worker reaches a
// scheduling point the coordinator admits the parked worker with the
// globally minimal (virtual time, worker id) pending event. Virtual time
// is the worker's clock; the id — assigned in registration order — breaks
// ties, so the admission sequence is a pure function of the simulation
// state and never of host scheduling, host load, or GOMAXPROCS.
//
// The event granularity is one scheduling slice: the work a worker
// performs between two Yield calls (for the benchmark harness, one
// workload operation). Slices run to completion while every other worker
// is parked, so the simulation state a slice touches needs no locks at
// all: an operation (a transaction, a cache fill, a round trip) is never
// interleaved with another. Coarser than yielding at every clock tick,
// this still fixes the interleaving: shared resources (vclock.Resource
// channel bookings, cache fills, flusher state) are touched in exactly
// the admission order, which is deterministic.
//
// Handoff: each worker owns a reusable one-slot park token channel.
// Admission sends exactly one token to exactly the admitted worker, so a
// slice transition is one channel send and one goroutine wakeup. (An
// earlier revision used a sync.Cond and Broadcast, waking all n parked
// workers per admission so that n-1 re-checked and re-slept — a
// thundering herd that made the sequential loop ~2x more expensive per
// operation at 8-32 workers.) A worker's pending event time is latched
// into Worker.at when it parks — the clock cannot advance while its
// owner is parked — so the admission min-scan reads the roster's own
// fields, never another goroutine's clock.
//
// The scheduler is the one place in a cell that synchronises host
// goroutines: it parks and wakes real ones, so its mutex and token
// channels stay. They are also what orders everything else — a slice's
// plain writes to clocks, resources and caches happen-before the next
// slice through the park token — which is why no other in-cell state
// carries a lock or an atomic.
//
// Protocol:
//
//	sched := NewScheduler()
//	// register every worker before any of them starts
//	w := sched.Register(clk)
//	go func() {
//	    w.Begin()          // park until admitted the first time
//	    defer w.Done()     // finish; admit the next worker
//	    for ... {
//	        w.Yield()      // scheduling point between operations
//	        ... one operation, advancing clk ...
//	    }
//	}()
//
// No worker is admitted until every registered worker has parked in
// Begin, so late-starting goroutines cannot be raced past by early ones.
// A worker that returns early (error, op cap) simply calls Done; the
// remaining workers continue in (time, id) order. Only a worker's own
// Done takes it out of the roster, so every slice a registered worker
// runs is admitted: no worker leaves early from outside.
type Scheduler struct {
	mu      sync.Mutex
	workers []*Worker
	running *Worker
	sealed  bool // set once the first worker parks; Register then panics
}

// Worker is one scheduler participant, bound to the clock it registered.
type Worker struct {
	s      *Scheduler
	clk    *Clock
	id     int
	at     int64 // pending event time, latched at park; valid while parked
	parked bool
	done   bool
	wake   chan struct{} // reusable park token; 1-buffered, owned by this worker
}

// NewScheduler creates an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Register adds a worker driving clk. All workers must be registered
// before any of them calls Begin — ids are assigned in registration
// order and are the deterministic tie-break, so admitting anyone before
// the roster is complete would reintroduce a host-order dependence.
func (s *Scheduler) Register(clk *Clock) *Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		panic("vclock: Scheduler.Register after a worker began")
	}
	w := &Worker{s: s, clk: clk, id: len(s.workers), wake: make(chan struct{}, 1)}
	s.workers = append(s.workers, w)
	return w
}

// Clock reports the clock the worker registered with.
func (w *Worker) Clock() *Clock { return w.clk }

// ID reports the worker's registration index (the tie-break key).
func (w *Worker) ID() int { return w.id }

// park records the worker's pending event and blocks until its park
// token admits it for the next slice. When the admission scan picks the
// parking worker itself — every slice of a 1-thread cell, and any slice
// whose worker is still the global minimum — the handoff short-circuits
// with no channel traffic at all. Caller holds s.mu; park drops it
// before blocking.
func (w *Worker) park() {
	s := w.s
	w.at = w.clk.NowNS()
	w.parked = true
	next := s.pickLocked()
	if next == w {
		s.mu.Unlock()
		return
	}
	if next != nil {
		next.wake <- struct{}{}
	}
	s.mu.Unlock()
	<-w.wake
}

// Begin parks the worker until the coordinator admits it for its first
// slice. Every registered worker must eventually call Begin, or the
// whole group stalls waiting for the roster to assemble. It always
// returns true: the result survives only because benchmark/driver.go
// still tests it.
func (w *Worker) Begin() bool {
	s := w.s
	s.mu.Lock()
	s.sealed = true
	w.park()
	return true
}

// Yield is a scheduling point: the worker parks its current clock as its
// next pending event and blocks until the coordinator admits it again —
// which happens once every worker with an earlier (time, id) event has
// run past it, finished, or parked later. Call only from the admitted
// worker, between operations.
func (w *Worker) Yield() {
	s := w.s
	s.mu.Lock()
	if s.running != w {
		panic(fmt.Sprintf("vclock: Yield from worker %d which is not running", w.id))
	}
	s.running = nil
	w.park()
}

// Done finishes the worker and admits the next pending one. The worker's
// clock no longer participates in admission decisions. Call it from the
// worker goroutine when it finishes its final slice (calling it again is
// a no-op, so deferring it is safe). Done on a live worker that is not
// currently running panics: admitting a successor while that worker
// might still run would break the one-runner discipline.
func (w *Worker) Done() {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		return
	}
	if s.running != w {
		panic(fmt.Sprintf("vclock: Done on worker %d which is not running", w.id))
	}
	w.done = true
	s.running = nil
	if next := s.pickLocked(); next != nil {
		next.wake <- struct{}{} // a done worker is never picked, so next != w
	}
}

// pickLocked selects the next slice: if no worker is running and every
// live worker has parked (the roster is assembled), the parked worker
// with the minimal (virtual time, id) event is marked running and
// returned; the caller delivers its park token (or short-circuits when
// it picked itself). Caller holds s.mu.
func (s *Scheduler) pickLocked() *Worker {
	if s.running != nil {
		return nil
	}
	var next *Worker
	for _, w := range s.workers {
		if w.done {
			continue
		}
		if !w.parked {
			return nil // a live worker has not reached Begin/Yield yet
		}
		// Ids ascend in roster order, so strictly-less keeps the earliest
		// id among equal times without comparing ids.
		if next == nil || w.at < next.at {
			next = w
		}
	}
	if next == nil {
		return nil // everyone is done
	}
	next.parked = false
	s.running = next
	return next
}

// Group is one benchmark run's worker set: a Scheduler plus the virtual
// time the run started at. The run's elapsed virtual time is the
// furthest-ahead worker clock minus that start.
type Group struct {
	sched   *Scheduler
	workers []*Worker
	start   int64
}

// NewGroup creates a group whose elapsed time is measured from start.
func NewGroup(start time.Duration) *Group {
	return &Group{sched: NewScheduler(), start: int64(start)}
}

// NewWorker registers a worker with a fresh clock at the group's start
// time. All workers must be registered before any calls Begin.
func (g *Group) NewWorker() *Worker {
	w := g.sched.Register(NewClockAt(time.Duration(g.start)))
	g.workers = append(g.workers, w)
	return w
}

// Run registers n workers and runs fn(i, worker) for each on its own
// goroutine under the scheduler: fn starts admitted, places w.Yield()
// between its operations, and the worker is done when fn returns. Run
// returns once every worker is.
// The scheduler admits no one until its whole roster has begun, so a
// group is driven either by one Run or by hand from NewWorker, not both.
func (g *Group) Run(n int, fn func(i int, w *Worker)) {
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = g.NewWorker()
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Begin()
			defer w.Done()
			fn(i, w)
		}()
	}
	wg.Wait()
}

// Elapsed reports the wall-clock-equivalent duration of the run so far: the
// furthest-ahead worker clock minus the start time. Call it from the
// running worker or after the workers have finished.
func (g *Group) Elapsed() time.Duration {
	max := g.start
	for _, w := range g.workers {
		if n := w.clk.NowNS(); n > max {
			max = n
		}
	}
	return time.Duration(max - g.start)
}
