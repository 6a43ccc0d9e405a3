// Package filebench reimplements the workload personalities the paper's
// evaluation drives through filebench — the read/write/create/delete
// microbenchmarks, the varmail and fileserver macrobenchmarks — plus the
// untar-Linux workload. Workloads run against any mounted file system and
// report operations and bytes per virtual second. Each timed personality
// is only its step: one shared loop (loop) runs it against the clock.
package filebench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// Target is a mounted file system under test.
type Target struct {
	K *kernel.Kernel
	M *kernel.Mount
}

// Result is one workload measurement.
type Result struct {
	Name    string
	Ops     int64
	Bytes   int64
	Elapsed time.Duration // virtual
	// Errs counts failures: workers that aborted on an error, plus —
	// under a config's TolerateIO — individual operations that failed
	// with an I/O error and were absorbed. Ops counts successes only,
	// so under faults Ops/Elapsed is goodput, not attempt rate.
	Errs int64

	// Metrics is the cell's trace-counter snapshot (cache hits, journal
	// commits, FUSE round-trips, ...), populated by the harness when the
	// run is traced with metrics enabled; nil otherwise.
	Metrics map[string]int64
}

// OpsPerSec reports throughput in operations per virtual second.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MBps reports throughput in megabytes per virtual second.
func (r Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d ops in %v (%.0f ops/s, %.1f MB/s)",
		r.Name, r.Ops, r.Elapsed, r.OpsPerSec(), r.MBps())
}

// tally is one worker's running count. Ops counts successes only; Errs
// counts the failures the TolerateIO rule absorbed. A step sets done to
// end its worker's loop before the window closes.
type tally struct {
	ops, bytes, errs int64
	done             bool
	tolerate         bool
}

// absorb is the TolerateIO rule, the goodput discipline of the netfaults
// experiment: under TolerateIO an ErrIO-class failure (blockdev EIO or
// netstore's degraded-mode failures) is counted in Errs — never in Ops —
// and reported absorbed; anything else is the caller's to return.
func (n *tally) absorb(err error) bool {
	if n.tolerate && TolerableIO(err) {
		n.errs++
		return true
	}
	return false
}

// runWorkers runs fn in n workers with fresh group-joined clocks until
// each worker's virtual clock passes duration (or fn signals done). The
// workers start at startAt — the virtual time the setup phase finished —
// so shared resources (CPU pool, device queues, journal state) warmed by
// setup do not leak into the measurement. The run's elapsed time is the
// furthest-ahead worker minus startAt. A worker that returns an error
// adds one to Errs.
//
// Execution is deterministic: the group's scheduler admits one worker at
// a time, always the one with the minimal (virtual time, worker index)
// pending event, with pace() as the scheduling point between operations.
// Worker goroutines are merely the execution vehicle — the interleaving
// on every shared structure (CPU pool, device queues, caches, flusher)
// is a pure function of virtual time, so multi-thread cells replay
// bit-for-bit across runs and hosts.
func runWorkers(tg Target, name string, n int, startAt, duration time.Duration,
	fn func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error)) Result {

	// Group.Run registers every worker before any runs: registration
	// order (= worker index) is the scheduler's tie-break key. Even a
	// worker's first operation (opening its file) runs under the
	// scheduler, so setup-order effects on shared state are fixed too.
	group := vclock.NewGroup(startAt)
	res := Result{Name: name}
	group.Run(n, func(w int, sw *vclock.Worker) {
		clk := sw.Clock()
		task := tg.K.NewTaskWithClock(fmt.Sprintf("%s-w%d", name, w), clk)
		wstart := clk.NowNS()
		t, err := fn(w, task, wstart+int64(duration), sw.Yield)
		if r := task.Rec(); r != nil {
			// The whole measured run is one worker-category span; its
			// exclusive time (what no nested span claims) is the
			// application's own think time.
			r.Span(task.Name, trace.CatWorker, "run", wstart, clk.NowNS())
		}
		// Still the admitted worker: the totals need no lock.
		res.Ops += t.ops
		res.Bytes += t.bytes
		res.Errs += t.errs
		if err != nil {
			res.Errs++
		}
	})
	res.Elapsed = group.Elapsed()
	return res
}

// loop is the measured loop every timed worker runs: until the worker's
// clock passes deadline, its Ops reach maxOps (0 = no cap) or step sets
// done, it yields to the scheduler, charges the application's per-op
// think time, and runs one step. A step failure the TolerateIO rule
// absorbs starts the next iteration; any other ends the worker.
func loop(task *kernel.Task, deadline int64, pace func(), maxOps int64, tolerate bool,
	step func(n *tally) error) (tally, error) {
	n := tally{tolerate: tolerate}
	for !n.done && task.Clk.NowNS() < deadline && (maxOps == 0 || n.ops < maxOps) {
		pace()
		task.Charge(task.Model().AppOpOverhead)
		if err := step(&n); err != nil && !n.absorb(err) {
			return n, err
		}
	}
	return n, nil
}

// MicroConfig parameterizes the read/write microbenchmarks.
type MicroConfig struct {
	Threads  int
	IOSize   int           // bytes per operation
	FileSize int64         // per-thread working file size
	Random   bool          // random vs sequential offsets
	Duration time.Duration // virtual run length
	MaxOps   int64         // optional per-thread op cap (0 = none)
	Seed     int64

	// TolerateIO absorbs per-operation I/O errors (blockdev EIO and
	// netstore's degraded-mode failures) as failed ops — counted in
	// Result.Errs, excluded from Ops — instead of aborting the worker.
	// The goodput discipline of the netfaults experiment.
	TolerateIO bool

	// PreMeasure, when set, runs after setup completes, at the virtual
	// time the measured window starts. The netfaults outage cell uses
	// it to arm a blackout window relative to measurement start.
	PreMeasure func(startNS int64)
}

// TolerableIO reports whether err is an I/O failure (blockdev's EIO or
// its fsapi mapping) that a TolerateIO workload may absorb as a failed
// operation rather than a worker abort.
func TolerableIO(err error) bool {
	return errors.Is(err, blockdev.ErrIO) || errors.Is(err, fsapi.ErrIO)
}

func (c *MicroConfig) defaults() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.IOSize <= 0 {
		c.IOSize = 4096
	}
	if c.FileSize <= 0 {
		c.FileSize = 16 << 20
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
}

// patternChunk returns the shared 1 MiB fill pattern. It is generated
// once: every writer workload sources its payload from this chunk, and
// callers only ever read it — writers slice it via pattern, never copy.
var patternChunk = sync.OnceValue(func() []byte {
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	return chunk
})

// pattern returns an n-byte read-only payload backed by the shared
// chunk: no per-worker (let alone per-op) copy of the fill pattern is
// ever made. Callers must not mutate the result. Sizes beyond the chunk
// fall back to a fresh zero buffer (no current workload needs one).
func pattern(n int) []byte {
	if chunk := patternChunk(); n <= len(chunk) {
		return chunk[:n]
	}
	return make([]byte, n)
}

// rw returns what a worker moves size bytes of f with: PRead into a
// fresh buffer, or, to write, PWrite from the shared read-only pattern.
func rw(f *kernel.File, size int, write bool) ([]byte, func(*kernel.Task, []byte, int64) (int, error)) {
	if write {
		return pattern(size), f.PWrite
	}
	return make([]byte, size), f.PRead
}

// prepareFile creates and writes a per-thread working file, then syncs so
// the measured phase starts from a clean, cached state.
func prepareFile(tg Target, task *kernel.Task, path string, size int64) error {
	f, err := tg.M.Open(task, path, fsapi.OCreate|fsapi.ORdwr|fsapi.OTrunc)
	if err != nil {
		return err
	}
	defer tg.M.Close(task, f)
	chunk := patternChunk()
	var off int64
	for off < size {
		n := int64(len(chunk))
		if off+n > size {
			n = size - off
		}
		if _, err := f.PWrite(task, chunk[:n], off); err != nil {
			return err
		}
		off += n
	}
	return f.FSync(task)
}

// ReadMicro is the paper's read microbenchmark (Figures 2 and 3): warm the
// cache with one pass, then timed reads at the configured size and access
// pattern.
func ReadMicro(tg Target, cfg MicroConfig) (Result, error) { return micro(tg, cfg, false) }

// WriteMicro is the paper's write microbenchmark (Figure 4): timed writes
// of IOSize at sequential or random offsets within a per-thread file.
func WriteMicro(tg Target, cfg MicroConfig) (Result, error) { return micro(tg, cfg, true) }

// micro is the read/write microbenchmark: one working file per thread,
// then IOSize reads (warm cache) or writes at sequential or seeded random
// offsets.
func micro(tg Target, cfg MicroConfig, write bool) (Result, error) {
	cfg.defaults()
	op, mode, seed := "read", fsapi.ORdonly, cfg.Seed
	if write {
		op, mode, seed = "write", fsapi.ORdwr, cfg.Seed+77
	}
	path := "/" + op + "file%d"
	setup := tg.K.NewTask("setup")
	for w := 0; w < cfg.Threads; w++ {
		if err := prepareFile(tg, setup, fmt.Sprintf(path, w), cfg.FileSize); err != nil {
			return Result{}, err
		}
	}
	// Warm the page cache for reads: one sequential pass per file.
	for w := 0; w < cfg.Threads && !write; w++ {
		if _, err := tg.M.ReadFile(setup, fmt.Sprintf(path, w)); err != nil {
			return Result{}, err
		}
	}

	kind := "seq"
	if cfg.Random {
		kind = "rnd"
	}
	name := fmt.Sprintf("%s-%s-%dt-%dk", op, kind, cfg.Threads, cfg.IOSize/1024)
	if cfg.PreMeasure != nil {
		cfg.PreMeasure(int64(setup.Clk.Now()))
	}
	res := runWorkers(tg, name, cfg.Threads, setup.Clk.Now(), cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			f, err := tg.M.Open(task, fmt.Sprintf(path, w), mode)
			if err != nil {
				return tally{}, err
			}
			defer tg.M.Close(task, f)
			rng := rand.New(rand.NewSource(seed + int64(w)))
			buf, io := rw(f, cfg.IOSize, write)
			slots := max(cfg.FileSize/int64(cfg.IOSize), 1)
			var pos int64
			return loop(task, deadline, pace, cfg.MaxOps, cfg.TolerateIO, func(n *tally) error {
				off := pos
				if cfg.Random {
					off = rng.Int63n(slots) * int64(cfg.IOSize)
				} else if pos += int64(cfg.IOSize); pos >= cfg.FileSize {
					pos = 0
				}
				k, err := io(task, buf, off)
				if err != nil {
					return err
				}
				n.ops++
				n.bytes += int64(k)
				return nil
			})
		})
	return res, nil
}

// MetaConfig parameterizes the create/delete microbenchmarks.
type MetaConfig struct {
	Threads  int
	Files    int // files per thread (delete pre-creates these)
	Duration time.Duration
	MaxOps   int64
}

func (c *MetaConfig) defaults() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Files <= 0 {
		c.Files = 512
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
}

// CreateFiles is Table 4's createfiles personality: each thread creates
// 16 KiB files (filebench's size) in its own directory, each fsync'd,
// until the clock runs out.
func CreateFiles(tg Target, cfg MetaConfig) (Result, error) {
	cfg.defaults()
	setup := tg.K.NewTask("setup")
	for w := 0; w < cfg.Threads; w++ {
		if err := tg.M.Mkdir(setup, fmt.Sprintf("/create%d", w)); err != nil {
			return Result{}, err
		}
	}
	payload := pattern(16 << 10)
	name := fmt.Sprintf("createfiles-%dt", cfg.Threads)
	res := runWorkers(tg, name, cfg.Threads, setup.Clk.Now(), cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			return loop(task, deadline, pace, cfg.MaxOps, false, func(n *tally) error {
				f, err := tg.M.Open(task, fmt.Sprintf("/create%d/f%06d", w, n.ops), fsapi.OCreate|fsapi.OWronly)
				if err != nil {
					return err
				}
				if _, err := f.Write(task, payload); err != nil {
					_ = tg.M.Close(task, f)
					return err
				}
				if err := f.FSync(task); err != nil {
					_ = tg.M.Close(task, f)
					return err
				}
				if err := tg.M.Close(task, f); err != nil {
					return err
				}
				n.ops++
				n.bytes += int64(len(payload))
				return nil
			})
		})
	return res, nil
}

// DeleteFiles is Table 5's deletefiles personality: a pre-created tree is
// deleted under the timer.
func DeleteFiles(tg Target, cfg MetaConfig) (Result, error) {
	cfg.defaults()
	setup := tg.K.NewTask("setup")
	payload := pattern(4096)
	for w := 0; w < cfg.Threads; w++ {
		dir := fmt.Sprintf("/delete%d", w)
		if err := tg.M.Mkdir(setup, dir); err != nil {
			return Result{}, err
		}
		for i := 0; i < cfg.Files; i++ {
			if err := tg.M.WriteFile(setup, fmt.Sprintf("%s/f%06d", dir, i), payload); err != nil {
				return Result{}, err
			}
		}
	}
	if err := tg.M.Sync(setup); err != nil {
		return Result{}, err
	}
	name := fmt.Sprintf("deletefiles-%dt", cfg.Threads)
	res := runWorkers(tg, name, cfg.Threads, setup.Clk.Now(), cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			return loop(task, deadline, pace, cfg.MaxOps, false, func(n *tally) error {
				if err := tg.M.Unlink(task, fmt.Sprintf("/delete%d/f%06d", w, n.ops)); err != nil {
					return err
				}
				n.ops++
				n.done = n.ops >= int64(cfg.Files)
				return nil
			})
		})
	return res, nil
}
