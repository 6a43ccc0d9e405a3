// Package iodaemon models the kernel's background I/O machinery in
// virtual time: the per-file sequential read-ahead pipeline and the
// per-device write-back flusher thread.
//
// The paper's headline result is that a kernel-resident file system
// keeps kernel-grade performance because it sits *behind* the page
// cache — with read-ahead hiding device latency on sequential reads and
// a background flusher batching dirty pages out — while a FUSE file
// system enjoys neither. This package supplies those two mechanisms to
// the simulated kernel; the FUSE baseline deliberately runs without
// them, preserving the asymmetry the paper measures.
//
// Everything here runs in virtual time on simulated tasks:
//
//   - Read-ahead: a demand read that continues a sequential stream
//     schedules a batch of page fills (Window decides which pages).
//     Each fill is issued at the batch's submission time, so the reads
//     travel the device queues in parallel — one plugged batch, exactly
//     how mpage_readahead submits — and the application only waits for
//     a page's completion time if it catches up with the pipeline.
//
//   - Write-back: dirtiers that cross the background threshold wake the
//     flusher, which drains every file's dirty set in ascending inode
//     order, coalescing contiguous dirty pages into batched
//     ->writepages calls on its own clock. Writers pay a wakeup, not
//     the device time; virtual-time honesty is preserved because the
//     flusher's device bookings still occupy the shared queues that any
//     later FLUSH must drain behind.
//
// The host-side execution of both is synchronous: fills and flushes run
// inline in the operation that triggered them, on the one goroutine the
// scheduler has admitted, so the daemon holds no lock or atomic and
// inherits its caller's determinism; only the *virtual* clocks (the
// forked fill clocks, the flusher's clock) overlap.
// With benchmark workers serialized by the vclock scheduler, fill
// batches and flusher wakeups are triggered in (virtual time, worker id)
// order, so multi-worker cells replay bit-for-bit too — the forked
// clocks and the flusher frontier are pure functions of the admission
// sequence.
//
// Neither mechanism knows what storage sits below the device front:
// read-ahead batches and coalesced write-back land on whatever
// blockdev.Backend the device mounts (local NVMe or netstore's object
// store). The netstore experiment exists to measure exactly how much
// more these mechanisms matter when each miss costs a network round
// trip instead of microseconds.
package iodaemon

import (
	"time"

	"bento/internal/costmodel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// Task is the slice of kernel.Task the daemon drives: virtual-time
// charging against the kernel's CPU pool, the task's clock, and the
// cost model in effect. It is satisfied by *kernel.Task; the
// indirection exists only to keep this package importable from the
// kernel.
type Task interface {
	Charge(d time.Duration)
	Clock() *vclock.Clock
	Model() *costmodel.Model
}

// Config tunes the background I/O subsystem.
type Config struct {
	// InitWindow is the read-ahead window granted to a newly detected
	// sequential stream, in pages. Default 4 (Linux's initial ramp).
	InitWindow int64
	// MaxWindow caps the read-ahead window, in pages. Default 32
	// (128 KiB, Linux's default read_ahead_kb).
	MaxWindow int64
	// BackgroundRatio divides the mount's dirty limit to get the
	// background write-back threshold: crossing dirtyLimit /
	// BackgroundRatio wakes the flusher. Default 2 (the shape of
	// Linux's dirty_background_ratio vs dirty_ratio).
	BackgroundRatio int64
}

func (c Config) withDefaults() Config {
	if c.InitWindow <= 0 {
		c.InitWindow = 4
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 32
	}
	if c.MaxWindow < c.InitWindow {
		// An explicit cap below the initial grant clamps to it rather
		// than being mistaken for unset.
		c.MaxWindow = c.InitWindow
	}
	if c.BackgroundRatio <= 0 {
		c.BackgroundRatio = 2
	}
	return c
}

// Stats counts the daemon's background work.
type Stats struct {
	FillPages  int64 // pages filled ahead of demand
	FillSkips  int64 // scheduled fills that found the page already cached
	FillErrors int64 // asynchronous fills that failed
	Wakeups    int64 // flusher wakeups
	FlushRuns  int64 // batched writepages calls (contiguous dirty runs)
	FlushPages int64 // pages cleaned by the flusher
	Throttles  int64 // writers made to wait on the flusher (balance_dirty_pages)
}

// Daemon is one mount's background I/O subsystem: a read-ahead worker
// and a write-back flusher, each a simulated task with its own virtual
// clock. T is the concrete task type (*kernel.Task in the kernel).
type Daemon[T Task] struct {
	cfg  Config
	ra   T                // read-ahead worker (clock = fill completion frontier)
	fl   T                // write-back flusher
	fork func(at int64) T // forks a fill task at a virtual time (batch submission)

	stopped bool

	// fillTask is the one reusable fill task. Fill batches never overlap
	// on the host, so a single task whose clock is rebased
	// (Clock.SetNS) to each fill's submission time behaves exactly like
	// forking a fresh task there: device bookings key on (time, service),
	// never task identity, and the kernel registers nothing per task. The
	// fork callback runs once, lazily, instead of once per page fill.
	fillTask    T
	hasFillTask bool

	stats Stats

	// rec mirrors the counters above into the cell's trace recorder and
	// marks each read-ahead batch with an instant event. Nil (the
	// default) records nothing.
	rec *trace.Recorder
}

// New creates a daemon from its two worker tasks and a task fork
// function. fork(at) must return a fresh task whose clock starts at
// virtual time at; each page fill of a read-ahead batch runs on a fill
// task rebased to the batch's submission time, so the batch's device
// commands are issued concurrently (asynchronous submission) rather than
// serially on one clock. fork is called once, lazily, for the daemon's
// reusable fill task; it must not register per-call state keyed on task
// identity.
func New[T Task](cfg Config, raWorker, flusher T, fork func(at int64) T) *Daemon[T] {
	return &Daemon[T]{cfg: cfg.withDefaults(), ra: raWorker, fl: flusher, fork: fork}
}

// Config reports the effective (defaulted) configuration.
func (d *Daemon[T]) Config() Config { return d.cfg }

// SetRecorder attaches the cell's trace recorder (nil disables). The
// kernel wires it when the mount enables the daemon.
func (d *Daemon[T]) SetRecorder(r *trace.Recorder) { d.rec = r }

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon[T]) Stats() Stats { return d.stats }

// Stopped reports whether the daemon has been quiesced.
func (d *Daemon[T]) Stopped() bool { return d.stopped }

// BackgroundThreshold reports the dirty-page level (given the mount's
// hard limit) past which dirtiers should wake the flusher.
func (d *Daemon[T]) BackgroundThreshold(dirtyLimit int64) int64 {
	return dirtyLimit / d.cfg.BackgroundRatio
}

// FillAhead runs one read-ahead batch: count page fills starting at
// page start, submitted at virtual time now (the reader's clock when it
// triggered read-ahead). Each fill runs on the daemon's fill task rebased
// to now, so the batch's device reads are booked concurrently from now
// on — the application keeps running while the device works, which is
// the entire point of read-ahead.
//
// fill(t, pg) performs one page read using t and reports whether it
// actually filled (false = the page was already cached). The fill's
// completion time is t's clock when fill returns; the caller records it
// on the page so a reader that catches up with the pipeline waits for
// exactly that moment. A fill error aborts the rest of the batch and is
// returned; a failed fill must leave no page in the cache.
//
// After a quiesce FillAhead is a no-op: an unmounting file system must
// not see new reads.
func (d *Daemon[T]) FillAhead(now int64, start, count int64, fill func(t T, pg int64) (bool, error)) error {
	if count <= 0 {
		return nil
	}
	if d.stopped {
		return nil
	}
	frontier := d.ra.Clock()
	if !d.hasFillTask {
		d.fillTask = d.fork(now)
		d.hasFillTask = true
	}
	d.rec.Add(trace.CtrRABatches, 1)
	d.rec.Instant("readahead", trace.CatDaemon, "ra-batch", now, start, count)
	for pg := start; pg < start+count; pg++ {
		t := d.fillTask
		t.Clock().SetNS(now)
		t.Charge(t.Model().AsyncFillPage)
		filled, err := fill(t, pg)
		if err != nil {
			d.stats.FillErrors++
			return err
		}
		if filled {
			d.stats.FillPages++
			d.rec.Add(trace.CtrRAFillPages, 1)
		} else {
			d.stats.FillSkips++
			d.rec.Add(trace.CtrRAFillSkips, 1)
		}
		frontier.AdvanceTo(t.Clock().NowNS())
	}
	return nil
}

// Flush runs one flusher pass at virtual time now: the flusher's clock
// catches up to the dirtier that woke it, pays the wakeup, and drains
// whatever flush writes back on the flusher's clock. flush reports the
// batched-call and page counts for the stats. The pass's virtual
// completion time is returned; a dirtier over the hard limit advances
// its own clock there (see Throttle).
//
// Flush on a quiesced daemon performs no work and reports the flusher's
// final clock, so late dirtiers cannot resurrect a stopped flusher.
func (d *Daemon[T]) Flush(now int64, flush func(t T) (runs, pages int, err error)) (completion int64, err error) {
	if d.stopped {
		return d.fl.Clock().NowNS(), nil
	}
	return d.flushPass(now, flush)
}

func (d *Daemon[T]) flushPass(now int64, flush func(t T) (runs, pages int, err error)) (completion int64, err error) {
	d.stats.Wakeups++
	d.rec.Add(trace.CtrFlushWakeups, 1)
	d.fl.Clock().AdvanceTo(now)
	d.fl.Charge(d.fl.Model().FlusherWakeup)
	runs, pages, err := flush(d.fl)
	d.stats.FlushRuns += int64(runs)
	d.stats.FlushPages += int64(pages)
	d.rec.Add(trace.CtrFlushRuns, int64(runs))
	d.rec.Add(trace.CtrFlushPages, int64(pages))
	return d.fl.Clock().NowNS(), err
}

// FlusherNow reports the flusher's current virtual clock — the
// completion frontier of all background write-back issued so far.
func (d *Daemon[T]) FlusherNow() int64 { return d.fl.Clock().NowNS() }

// NoteThrottle counts a writer throttled against the flusher
// (balance_dirty_pages making the dirtier wait).
func (d *Daemon[T]) NoteThrottle() {
	d.stats.Throttles++
	d.rec.Add(trace.CtrThrottles, 1)
}

// Quiesce stops the daemon after one final flusher pass: the remaining
// dirty state drains on the flusher's clock, then both workers are
// retired. Subsequent FillAhead and Flush calls are no-ops. It returns
// the flusher's completion time so the caller (sync/unmount) can wait
// for it. Quiescing twice is safe; the second call just reports the
// final clock.
func (d *Daemon[T]) Quiesce(flush func(t T) (runs, pages int, err error)) (completion int64, err error) {
	if d.stopped {
		return d.fl.Clock().NowNS(), nil
	}
	d.stopped = true
	// The read-ahead side needs no drain: fills complete within the call
	// that issued them; stopping merely refuses new batches.
	return d.flushPass(d.fl.Clock().NowNS(), flush)
}
