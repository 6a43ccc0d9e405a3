package blockdev

import (
	"bento/internal/trace"
	"bento/internal/vclock"
)

// Backend is the storage tier beneath the Device front: it stores block
// contents and prices commands in virtual time. The Device keeps
// everything backend-agnostic — argument validation, fault injection,
// power-cut scheduling, command statistics, and trace sampling — and
// delegates the submit/complete core of every read, write, and flush to
// its Backend. Two implementations exist: the local RAM-backed NVMe
// model (this package; the default) and the object-store tier in
// internal/netstore, which maps block extents onto objects behind a
// network cost model with a read-through local cache.
//
// Timing protocol. Every command method takes the issuing task's
// current virtual time `now` and returns the command's completion time
// without blocking: the caller (the Device front, and through it the
// file systems) decides whether to wait — AdvanceTo(completion), a
// synchronous command — or to keep submitting and wait once for the
// batch maximum, which is how the in-kernel variants exploit queue-depth
// or request parallelism. Completion times must be a pure function of
// the call sequence and the cost model, never of host time, so cells
// replay bit-for-bit under the vclock scheduler.
//
// Durability protocol. SubmitBlock stages a write in the backend's
// volatile tier (the local device's write cache; netstore's dirty cache
// objects). Reads observe staged writes immediately. Flush is the
// durability barrier: everything staged before it must survive
// Crash(0, seed) afterwards. A backend MAY make staged writes durable
// earlier than the barrier (netstore's cache-pressure write-back PUTs
// whole objects), so the crash contract is one-sided: flushed data
// always survives, unflushed data survives or reverts per-block to the
// last durable value — never tears.
//
// Buffer ownership. One rule covers every buffer a backend can reach — a
// block's current contents, its durable image, a cached copy: it is
// immutable. A backend replaces such a buffer with another one and never
// writes into it, and it recycles a replaced buffer only if that buffer
// was never shared — never lent through BorrowBlock and never adopted
// through SubmitOwned; a shared buffer that leaves the backend's tables is
// the garbage collector's. That is what lets the data plane pass blocks by
// reference: BorrowBlock returns the backend's own buffer as a read-only
// view that stays valid and unchanged for as long as the caller keeps it,
// with nothing to give back, and SubmitOwned makes the caller's buffer the
// block without a copy, on the caller's promise never to write it again.
// The copying pair, ReadBlock and SubmitBlock, stays for callers whose
// buffers are not block-sized or not theirs to give: metadata caches,
// journals, the FUSE wire, partial blocks. Both pairs book the same
// command at the same cost; which one a caller uses is invisible in
// virtual time. internal/storagetest's ownership suite holds every
// backend to the rule.
//
// Failure protocol. Command methods return (completion, error). A
// non-nil error means the command did NOT take effect (the read buffer
// is unspecified, the write was not staged, the flush left dirty state
// behind); the completion time still reports when the failure became
// known — timeouts and exhausted retries consume virtual time — and
// the caller advances to it before surfacing the error. Errors must be
// as deterministic as completions: a backend that can fail (netstore
// under its fault model) derives every failure from a seeded decision
// stream, never from host state. The local backend never fails.
//
// Concurrency. Implementations need not be safe for concurrent use: a
// device belongs to one cell, whose scheduler admits one task at a time,
// which also fixes the booking order (and therefore completion times)
// as a function of the admission order.
type Backend interface {
	// ReadBlock copies block blk into buf (len == BlockSize, already
	// validated) and returns the completion time of a read command
	// issued at now. Absent blocks read as zeros.
	ReadBlock(now int64, blk int, buf []byte) (completion int64, err error)

	// BorrowBlock is ReadBlock by reference: it books the same read
	// command and returns the block's buffer as a read-only view instead
	// of copying it. A nil view means the block reads as zeros. The view
	// stays valid and unchanged for as long as the caller holds it,
	// whatever is written, flushed, crashed or dropped afterwards; the
	// caller must never write through it and has nothing to give back.
	BorrowBlock(now int64, blk int) (view []byte, completion int64, err error)

	// JoinRead reads blk as one more block of the read command that
	// completes at prev — the caller's read of blk-1, made under a plug
	// (see Device.Plug) — instead of as a command of its own. A backend
	// that can lengthen that command by one block does so and returns the
	// lengthened command's completion with ok true; with buf non-nil it
	// copies the block into buf like ReadBlock, with buf nil it returns
	// the block's read-only view like BorrowBlock. Otherwise — the backend
	// does not merge, or something else has been booked on that command's
	// channel since — it returns ok false having done nothing, and the
	// caller reads blk with ReadBlock or BorrowBlock. A join never fails:
	// a backend that could fail books the block on its own instead.
	JoinRead(prev int64, blk int, buf []byte) (view []byte, completion int64, ok bool)

	// JoinWrite stages a write of buf to blk as one more block of the
	// write command that completes at prev — the caller's write of blk-1,
	// made under a plug — instead of as a command of its own, the write
	// being issued at now. A backend that can lengthen that command by one
	// block does so if that completes blk no later than a one-block
	// command booked at now would, and returns the lengthened command's
	// completion with ok true; it stages buf like SubmitBlock (owned
	// false) or SubmitOwned (owned true). Otherwise — the backend does not
	// merge, something else has been booked on that command's channel
	// since, or a command of its own would complete sooner — it returns ok
	// false having done nothing, and the caller submits blk on its own. A
	// join never fails.
	JoinWrite(prev, now int64, blk int, buf []byte, owned bool) (completion int64, ok bool)

	// SubmitBlock stages a write of buf to blk in the volatile tier and
	// returns the command's completion time. The write is observable by
	// subsequent ReadBlocks immediately and durable after Flush. buf is
	// copied; the caller keeps it.
	SubmitBlock(now int64, blk int, buf []byte) (completion int64, err error)

	// SubmitOwned is SubmitBlock by reference: it books the same write
	// command and keeps buf (len == BlockSize) as the block's contents
	// instead of copying it. The caller gives buf up for writing — it may
	// go on reading it, like a borrowed view — whether or not the call
	// succeeds.
	SubmitOwned(now int64, blk int, buf []byte) (completion int64, err error)

	// Flush is the durability barrier: it makes every staged write
	// durable and returns the barrier's completion time. It must not
	// reorder with previously submitted commands (a full barrier).
	Flush(now int64) (completion int64, err error)

	// DirtyBlocks reports how many blocks are staged but not yet
	// durable.
	DirtyBlocks() int

	// Crash models power loss at the backend: contents revert to the
	// durable tier plus a seeded pseudo-random keepFraction of the
	// staged writes (chosen per block, deterministically in seed), and
	// the volatile tier empties. Queue occupancy resets.
	Crash(keepFraction float64, seed int64)

	// QueueDepth reports commands still in flight at virtual time now —
	// the occupancy the Device samples onto the trace's qdepth track.
	QueueDepth(now int64) int

	// ResourceStats exposes utilization of the backend's primary
	// service resource (device queue pairs; netstore request channels).
	ResourceStats() vclock.ResourceStats

	// Reset clears queue occupancy and resource statistics; benchmarks
	// call it (via Device.ResetStats) after warmup.
	Reset()

	// SetRecorder attaches the cell's trace recorder (nil disables).
	// Backends with interesting internals (netstore's GET/PUT request
	// spans and hit-ratio counters) record through it; the local
	// backend records nothing of its own (the Device front already
	// counts commands and samples queue depth).
	SetRecorder(r *trace.Recorder)

	// DropCache evicts clean entries from any local cache tier the
	// backend keeps (netstore's read-through object cache), so
	// drop_caches-style scenarios are genuinely cold end to end. Dirty
	// (staged, not yet durable) state must survive. The local backend
	// has no cache tier and no-ops.
	DropCache()
}
