package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runSchedule drives n scheduler workers, each performing slices[i] many
// slices; slice j of worker i advances its clock by step(i, j). It
// returns the admission order as "w<i>:<slice>" strings and the final
// clock values.
func runSchedule(t *testing.T, n int, slices func(i int) int, step func(i, j int) int64,
	launchOrder []int, launchStagger time.Duration) ([]string, []int64) {
	t.Helper()
	s := NewScheduler()
	clks := make([]*Clock, n)
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		clks[i] = NewClock()
		ws[i] = s.Register(clks[i])
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	if launchOrder == nil {
		launchOrder = make([]int, n)
		for i := range launchOrder {
			launchOrder[i] = i
		}
	}
	for _, i := range launchOrder {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i].Begin()
			defer ws[i].Done()
			for j := 0; j < slices(i); j++ {
				if j > 0 {
					ws[i].Yield()
				}
				mu.Lock()
				order = append(order, fmt.Sprintf("w%d:%d", i, j))
				mu.Unlock()
				clks[i].AdvanceNS(step(i, j))
			}
		}(i)
		if launchStagger > 0 {
			time.Sleep(launchStagger)
		}
	}
	wg.Wait()
	finals := make([]int64, n)
	for i, c := range clks {
		finals[i] = c.NowNS()
	}
	return order, finals
}

// TestSchedulerTieBreakByID: workers whose clocks stay equal must be
// admitted in registration order at every round.
func TestSchedulerTieBreakByID(t *testing.T) {
	const n, rounds = 4, 3
	order, _ := runSchedule(t, n,
		func(int) int { return rounds },
		func(int, int) int64 { return 100 }, // all clocks advance in lockstep
		nil, 0)
	var want []string
	for j := 0; j < rounds; j++ {
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprintf("w%d:%d", i, j))
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("admission order:\n got %v\nwant %v", order, want)
	}
}

// TestSchedulerMinTimeFirst: a slower-clock worker must be admitted for
// all its earlier events before a faster one proceeds — the discrete
// event loop always picks the globally minimal (time, id) event.
func TestSchedulerMinTimeFirst(t *testing.T) {
	// Worker 0 advances 300 per slice, worker 1 advances 100: between two
	// w0 events, w1 gets three.
	order, finals := runSchedule(t, 2,
		func(i int) int { return []int{2, 6}[i] },
		func(i, _ int) int64 { return []int64{300, 100}[i] },
		nil, 0)
	want := []string{
		"w0:0", // t=0 (tie, id 0 first)
		"w1:0", // t=0
		"w1:1", // t=100
		"w1:2", // t=200
		"w0:1", // t=300 (tie with w1:3, id 0 first)
		"w1:3", // t=300
		"w1:4", // t=400
		"w1:5", // t=500
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("admission order:\n got %v\nwant %v", order, want)
	}
	if finals[0] != 600 || finals[1] != 600 {
		t.Fatalf("final clocks = %v, want [600 600]", finals)
	}
}

// TestSchedulerNoStarvation: a worker that advances much faster than its
// peers must still be admitted — admission tracks the minimal event, so
// no roster member can be passed over forever. Every worker completes
// its full slice budget.
func TestSchedulerNoStarvation(t *testing.T) {
	const n = 8
	order, _ := runSchedule(t, n,
		func(int) int { return 50 },
		func(i, _ int) int64 { return int64(1 + 1000*i) }, // wildly uneven speeds
		nil, 0)
	counts := make(map[string]int)
	for _, o := range order {
		var w, j int
		fmt.Sscanf(o, "w%d:%d", &w, &j)
		counts[fmt.Sprintf("w%d", w)]++
	}
	for i := 0; i < n; i++ {
		if got := counts[fmt.Sprintf("w%d", i)]; got != 50 {
			t.Errorf("worker %d ran %d slices, want 50", i, got)
		}
	}
}

// TestSchedulerQuiesceWithBlockedWorkers: a worker finishing early (as
// an erroring benchmark worker does) must release the remaining parked
// workers, and the group must drain completely.
func TestSchedulerQuiesceWithBlockedWorkers(t *testing.T) {
	s := NewScheduler()
	clks := []*Clock{NewClock(), NewClock()}
	ws := []*Worker{s.Register(clks[0]), s.Register(clks[1])}

	done := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i].Begin()
			defer ws[i].Done()
			for j := 0; j < 3; j++ {
				if j > 0 {
					ws[i].Yield()
				}
				clks[i].AdvanceNS(10)
				if i == 0 && j == 1 {
					return // worker 0 errors out mid-run, two slices in
				}
			}
			done <- i
		}(i)
	}
	quiesced := make(chan struct{})
	go func() { wg.Wait(); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatal("group failed to quiesce after a worker finished early")
	}
	if got := len(done); got != 1 {
		t.Fatalf("%d workers ran to completion, want exactly 1 (worker 1)", got)
	}
	if clks[0].NowNS() != 20 || clks[1].NowNS() != 30 {
		t.Fatalf("final clocks = [%d %d], want [20 30]", clks[0].NowNS(), clks[1].NowNS())
	}
}

// TestSchedulerDoubleDoneIsSafe: benchmark workers call Done from a
// defer; a second call (e.g. an explicit early Done plus the defer)
// must be a no-op.
func TestSchedulerDoubleDoneIsSafe(t *testing.T) {
	s := NewScheduler()
	w := s.Register(NewClock())
	w.Begin()
	w.Done()
	w.Done()
}

// TestSchedulerSeededStress permutes the host-side launch order (and
// staggers goroutine starts) across seeds and asserts the admission
// sequence and final virtual times never change: the schedule is a
// function of (virtual time, id) alone, not of which goroutine the host
// happened to run first.
func TestSchedulerSeededStress(t *testing.T) {
	const n, slices = 6, 40
	// Per-worker deterministic but irregular step sizes, shared Resource
	// so bookings interact exactly as device queues do.
	run := func(launch []int, stagger time.Duration) ([]string, []int64) {
		s := NewScheduler()
		res := NewResource("dev", 2)
		clks := make([]*Clock, n)
		ws := make([]*Worker, n)
		for i := 0; i < n; i++ {
			clks[i] = NewClock()
			ws[i] = s.Register(clks[i])
		}
		var mu sync.Mutex
		var order []string
		var wg sync.WaitGroup
		for _, i := range launch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)))
				ws[i].Begin()
				defer ws[i].Done()
				for j := 0; j < slices; j++ {
					if j > 0 {
						ws[i].Yield()
					}
					mu.Lock()
					order = append(order, fmt.Sprintf("w%d:%d", i, j))
					mu.Unlock()
					// Book shared service then advance, like a device op.
					svc := int64(10 + rng.Intn(90))
					clks[i].AdvanceTo(res.Acquire(clks[i].NowNS(), svc))
				}
			}(i)
			if stagger > 0 {
				time.Sleep(stagger)
			}
		}
		wg.Wait()
		finals := make([]int64, n)
		for i, c := range clks {
			finals[i] = c.NowNS()
		}
		return order, finals
	}

	baseLaunch := make([]int, n)
	for i := range baseLaunch {
		baseLaunch[i] = i
	}
	wantOrder, wantFinals := run(baseLaunch, 0)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		launch := append([]int(nil), baseLaunch...)
		rng.Shuffle(n, func(a, b int) { launch[a], launch[b] = launch[b], launch[a] })
		stagger := time.Duration(rng.Intn(2)) * time.Millisecond
		gotOrder, gotFinals := run(launch, stagger)
		if !reflect.DeepEqual(gotFinals, wantFinals) {
			t.Fatalf("seed %d (launch %v): final clocks %v, want %v", seed, launch, gotFinals, wantFinals)
		}
		if !reflect.DeepEqual(gotOrder, wantOrder) {
			t.Fatalf("seed %d (launch %v): admission order diverged", seed, launch)
		}
	}
}

// TestSchedulerRegisterAfterStartPanics: the roster must be complete
// before admission starts; late registration would change ids.
func TestSchedulerRegisterAfterStartPanics(t *testing.T) {
	s := NewScheduler()
	w := s.Register(NewClock())
	w.Begin()
	defer w.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Begin did not panic")
		}
	}()
	s.Register(NewClock())
}

// TestGroupSchedulesDeterministically exercises the Group the benchmark
// harness uses: workers on a shared resource, shuffled goroutine launch —
// identical Elapsed every run — and Run, which launches in index order.
func TestGroupSchedulesDeterministically(t *testing.T) {
	const n = 5
	slice := func(i int, w *Worker, res *Resource) {
		c := w.Clock()
		for j := 0; j < 20; j++ {
			w.Yield()
			c.AdvanceTo(res.Acquire(c.NowNS(), int64(50+i)))
		}
	}
	run := func(shuffleSeed int64) time.Duration {
		g := NewGroup(time.Millisecond)
		ws := make([]*Worker, n)
		for i := range ws {
			ws[i] = g.NewWorker()
		}
		res := NewResource("dev", 2)
		idx := []int{0, 1, 2, 3, 4}
		rand.New(rand.NewSource(shuffleSeed)).Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		var wg sync.WaitGroup
		for _, i := range idx {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ws[i].Begin()
				defer ws[i].Done()
				slice(i, ws[i], res)
			}(i)
		}
		wg.Wait()
		return g.Elapsed()
	}
	want := run(0)
	for seed := int64(1); seed < 5; seed++ {
		if got := run(seed); got != want {
			t.Fatalf("seed %d: Elapsed = %v, want %v", seed, got, want)
		}
	}
	g := NewGroup(time.Millisecond)
	res := NewResource("dev", 2)
	g.Run(n, func(i int, w *Worker) { slice(i, w, res) })
	if got := g.Elapsed(); got != want {
		t.Fatalf("Group.Run: Elapsed = %v, want %v", got, want)
	}
}

// TestSchedulerMisuseGuards: Done from outside the running worker must
// fail loudly instead of admitting a successor while that worker might
// still run.
func TestSchedulerMisuseGuards(t *testing.T) {
	t.Run("done-not-running", func(t *testing.T) {
		s := NewScheduler()
		w := s.Register(NewClock())
		defer func() {
			if recover() == nil {
				t.Fatal("Done on a never-begun worker did not panic")
			}
		}()
		w.Done()
	})
}
