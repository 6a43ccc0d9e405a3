// Package vclock provides virtual-time accounting for the simulated kernel.
//
// Every simulated task (an application thread executing a system call, a
// FUSE daemon worker, a journal commit thread) owns a Clock. Costs charged
// by the cost model advance the clock; the clock never reads wall time, so
// benchmark results are a function of the model alone and are stable across
// host machines.
//
// Shared hardware — NVMe queue pairs, a single-threaded FUSE daemon — is a
// Resource with a fixed number of service channels. A task asking the
// resource to perform work at virtual time `now` receives a completion time
// of max(now, earliest-free-channel) + service. Issuing several requests
// before advancing the clock models asynchronous (queued) submission;
// advancing the clock to each completion before issuing the next models
// synchronous submission. The contention behaviour of both patterns emerges
// from the same primitive.
package vclock

import (
	"fmt"
	"time"
)

// Clock is a per-task virtual clock measured in nanoseconds since the start
// of the simulation. It is plain memory: a clock belongs to the one task
// that advances it, and a Scheduler reads a worker's clock only while that
// worker is parked (the scheduler's own lock orders the two).
type Clock struct {
	ns int64
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// NewClockAt returns a clock positioned at the given virtual time. It is
// used to fork worker clocks from a parent at simulation start.
func NewClockAt(t time.Duration) *Clock {
	return &Clock{ns: int64(t)}
}

// Now reports the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns) }

// NowNS reports the current virtual time in integer nanoseconds.
func (c *Clock) NowNS() int64 { return c.ns }

// Advance moves the clock forward by d. Negative durations are ignored so
// that cost-model entries may be zeroed without callers special-casing.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns += int64(d)
	}
}

// AdvanceNS moves the clock forward by ns nanoseconds (non-negative).
func (c *Clock) AdvanceNS(ns int64) {
	if ns > 0 {
		c.ns += ns
	}
}

// SetNS hard-positions the clock at the absolute virtual time ns, moving
// backwards if needed. It exists for task recycling: a worker task reused
// across serialized batches (the read-ahead fill task) is rebased to each
// batch's submission time, exactly as if a fresh task had been forked
// there. General code must use AdvanceTo — virtual time within one task's
// execution never runs backwards.
func (c *Clock) SetNS(ns int64) { c.ns = ns }

// AdvanceTo moves the clock forward to the absolute virtual time ns. It is
// a no-op if the clock is already at or past ns; virtual time never runs
// backwards.
func (c *Clock) AdvanceTo(ns int64) {
	if ns > c.ns {
		c.ns = ns
	}
}

// Resource models shared hardware with a fixed number of identical service
// channels (NVMe queue pairs, daemon worker threads). It holds no lock: a
// resource belongs to one cell, and the scheduler admits one of the cell's
// workers at a time, so bookings arrive in admission order from one
// goroutine at any host instant.
type Resource struct {
	name string
	free []int64 // next-free virtual time per channel
	// hi is the lowest index among the channels with the latest free time.
	// When free[hi] <= now every channel is idle at now and best-fit's
	// answer is hi itself — the common case (a caller whose clock has
	// caught up with its own bookings) books without scanning.
	hi int
}

// NewResource creates a resource with the given number of service channels.
// channels must be >= 1.
func NewResource(name string, channels int) *Resource {
	if channels < 1 {
		panic(fmt.Sprintf("vclock: resource %q needs >=1 channel, got %d", name, channels))
	}
	return &Resource{name: name, free: make([]int64, channels)}
}

// Name reports the name the resource was created with.
func (r *Resource) Name() string { return r.name }

// Acquire schedules `service` nanoseconds of work on a channel for a
// request arriving at virtual time `now`, and returns the completion
// time. The caller decides whether to wait (advance its clock to the
// completion) or to continue issuing work (asynchronous submission).
//
// Channel choice is best-fit: the channel whose free time is closest
// below `now` (packing work densely with no idle gap), falling back to
// the earliest-free channel when all are busy past `now`. Min-free
// selection would strand the idle interval [free, now) on a mostly-idle
// channel every time a caller runs ahead, silently discarding capacity.
func (r *Resource) Acquire(now, service int64) (completion int64) {
	_, _, completion = r.AcquireInfo(now, service)
	return completion
}

// AcquireInfo is Acquire plus placement: it also reports which channel
// served the request and when service began (completion - service, after
// queueing). Tracing uses it to lay request spans on per-channel lane
// tracks, where they are non-overlapping by construction — a channel's
// free time only moves forward — so span-nesting analyzers stay happy.
func (r *Resource) AcquireInfo(now, service int64) (channel int, start, completion int64) {
	if service < 0 {
		service = 0
	}
	ch := r.hi
	if r.free[ch] > now {
		ch = r.bestFit(now)
	}
	start = max(now, r.free[ch])
	completion = start + service
	r.free[ch] = completion
	if top := r.free[r.hi]; completion > top || (completion == top && ch < r.hi) {
		r.hi = ch
	}
	return ch, start, completion
}

// Peek reports the completion Acquire(now, service) would return,
// booking nothing: service after the later of now and the earliest time
// a channel is free. It backs merged device writes, which join the open
// command only when that completes the block no later than a command of
// its own would.
func (r *Resource) Peek(now, service int64) (completion int64) {
	if service < 0 {
		service = 0
	}
	start := now
	if r.free[r.hi] > now { // not every channel is idle: find the earliest free
		start = r.free[r.hi]
		for _, f := range r.free {
			start = min(start, f)
		}
		start = max(start, now)
	}
	return start + service
}

// Extend lengthens the booking that ends channel ch at end by d
// nanoseconds and returns its new completion, end + d: booking service
// and extending it by d leaves the resource exactly as booking service
// + d at once would have (same free times and latest channel). It refuses — ok false, nothing changed — when ch's
// horizon is no longer end, because something else has been booked on
// the channel since (or it was truncated, serialized or reset); the
// caller then books a fresh request. It backs merged device commands: a
// plugged read or write of the next block lengthens the open command
// instead of booking one of its own.
func (r *Resource) Extend(ch int, end, d int64) (completion int64, ok bool) {
	if ch < 0 || ch >= len(r.free) || r.free[ch] != end {
		return 0, false
	}
	if d < 0 {
		d = 0
	}
	completion = end + d
	r.free[ch] = completion
	if top := r.free[r.hi]; completion > top || (completion == top && ch < r.hi) {
		r.hi = ch
	}
	return completion, true
}

// bestFit scans for the channel whose free time is closest below now,
// lowest index first among equals, falling back to the earliest-free
// channel when none is idle.
func (r *Resource) bestFit(now int64) int {
	best := -1
	for i, f := range r.free {
		if f <= now && (best < 0 || f > r.free[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i, f := range r.free {
		if f < r.free[best] {
			best = i
		}
	}
	return best
}

// AcquireSerial schedules work that must run after all previously scheduled
// work on every channel has finished (a full barrier), e.g. a device FLUSH
// that cannot be reordered with queued writes. It returns the completion
// time and leaves every channel busy until then.
func (r *Resource) AcquireSerial(now, service int64) (completion int64) {
	if service < 0 {
		service = 0
	}
	completion = max(now, r.free[r.hi]) + service
	for i := range r.free {
		r.free[i] = completion
	}
	r.hi = 0
	return completion
}

// Truncate rewinds channel ch's booked horizon to virtual time at. It backs
// hedged-request cancellation: when a hedge wins, the loser's lane is
// released at the winner's completion instead of staying busy for the
// full booked service. Callers must not truncate below the start of
// the booking being cancelled; a truncation at or beyond the channel's
// current horizon is a no-op.
func (r *Resource) Truncate(ch int, at int64) {
	if ch < 0 || ch >= len(r.free) || at >= r.free[ch] {
		return
	}
	r.free[ch] = at
	if ch == r.hi {
		// The latest channel moved back: find the new one.
		for i, f := range r.free {
			if f > r.free[r.hi] || (f == r.free[r.hi] && i < r.hi) {
				r.hi = i
			}
		}
	}
}

// InUse reports how many channels are still busy at virtual time now —
// the instantaneous queue occupancy a monitor would observe. Tracing
// samples it for device queue-depth counter tracks.
func (r *Resource) InUse(now int64) int {
	if r.free[r.hi] <= now {
		return 0
	}
	n := 0
	for _, f := range r.free {
		if f > now {
			n++
		}
	}
	return n
}

// Reset clears channel occupancy: every channel is free from time 0. A
// backend's Crash calls it, since a power cut loses the queued commands.
func (r *Resource) Reset() {
	clear(r.free)
	r.hi = 0
}
