package vclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchYield measures the park/admit/unpark round trip: n workers each
// perform b.N/n slices of one clock tick plus one Yield, so ns/op is the
// per-operation scheduler overhead a benchmark worker pays. This is the
// hot path of every harness cell — the sequential discrete-event loop's
// cost over free-running goroutines.
func benchYield(b *testing.B, n int) {
	b.ReportAllocs()
	sched := NewScheduler()
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		workers[i] = sched.Register(NewClock())
	}
	per := b.N / n
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.Begin()
			defer w.Done()
			for op := 0; op < per; op++ {
				w.Clock().Advance(time.Microsecond)
				w.Yield()
			}
		}(workers[i])
	}
	wg.Wait()
}

func BenchmarkSchedulerYield(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			benchYield(b, n)
		})
	}
}
