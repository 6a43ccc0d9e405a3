package blockdev

import (
	"math/rand"
	"slices"

	"bento/internal/costmodel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// localBackend is the RAM-backed NVMe model: the storage half of the
// historical Device, factored behind the Backend interface. Commands
// are priced by the cost model's Dev* entries and booked on a
// vclock.Resource with DevChannels service channels (queue-pair
// parallelism); writes land in a volatile write cache that a FLUSH
// promotes to the durable tier.
//
// Storage is one buffer per block plus an undo log. bufs[blk] is the
// block's current contents (unflushed writes included); nil reads as
// zeros, and the table grows as higher blocks are written, so a multi-GiB
// device costs host memory only for the blocks actually written. Under the
// Backend buffer-ownership rule a buffer in the table is never written
// again: a write swaps a new buffer in — SubmitBlock copies into one from
// the free list, SubmitOwned adopts the caller's — and the replaced
// pointer is what the volatile write cache remembers. That cache is the
// undo log, an append-only slice with one dirty bit per block beside it:
// the first write of a block since the last FLUSH sets the bit and appends
// the replaced (durable) pointer, later writes see the bit and just drop
// what they replace, a FLUSH forgets the saved pointers (the table is now
// durable) and a crash swaps back the ones whose writes do not survive.
// Nothing is copied to save or restore an image.
//
// A buffer is shared once it has been lent (BorrowBlock) or adopted
// (SubmitOwned): somebody outside may hold it, so when it leaves the table
// it is left to the collector. The mark travels with the table entry and
// its undo record. Only never-shared buffers return to the free list, so a
// journal region rewritten between FLUSHes allocates nothing at steady
// state; new buffers are carved from chunkBlocks-block chunks, so a
// stream of copied writes enters the allocator once per chunk.
type localBackend struct {
	blockSize int
	bufs      [][]byte  // current contents; nil: never written, reads as zeros
	shared    []uint64  // bit blk: bufs[blk] was lent or adopted
	dirty     []uint64  // bit blk: block blk has an undo record (written since the last FLUSH)
	undo      []undoRec // one record per dirty block, in first-write order
	free      [][]byte  // replaced buffers that were never shared
	chunk     []byte    // the uncarved rest of the newest chunk
	res       *vclock.Resource
	model     *costmodel.Model
}

// chunkBlocks is how many block buffers one allocation supplies (64 KiB at
// the default block size). Not more: internal/crashtort builds some two
// thousand small devices that each write a few scattered metadata blocks,
// and its wall time rose 8-15 % with 256 KiB allocations (the allocator's
// madvise traffic on large short-lived objects).
const chunkBlocks = 16

// undoRec is how to take back the unflushed writes of one block.
type undoRec struct {
	blk    int
	saved  []byte // the durable buffer; nil: never written, a lost write unmaps the block
	shared bool   // saved was lent or adopted
}

// NewLocalBackend returns the RAM-backed local backend the Device uses
// by default. It is exported so factories that take an explicit
// Config.Backend (the storage conformance suite, for one) can construct
// the local implementation the same way they construct remote ones.
func NewLocalBackend(name string, blockSize int, model *costmodel.Model) Backend {
	return &localBackend{
		blockSize: blockSize,
		res:       vclock.NewResource(name, model.DevChannels),
		model:     model,
	}
}

// current returns blk's buffer, or nil when it has never been written.
func (lb *localBackend) current(blk int) []byte {
	if blk >= len(lb.bufs) {
		return nil
	}
	return lb.bufs[blk]
}

func (lb *localBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if b := lb.current(blk); b != nil {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

func (lb *localBackend) BorrowBlock(now int64, blk int) ([]byte, int64, error) {
	b := lb.current(blk)
	if b != nil {
		lb.shared[blk/64] |= 1 << (blk % 64)
	}
	return b, lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

// takeBuf returns a buffer nobody else references, contents unspecified.
func (lb *localBackend) takeBuf() []byte {
	if n := len(lb.free); n > 0 {
		b := lb.free[n-1]
		lb.free = lb.free[:n-1]
		return b
	}
	if len(lb.chunk) == 0 {
		lb.chunk = make([]byte, chunkBlocks*lb.blockSize)
	}
	b := lb.chunk[:lb.blockSize:lb.blockSize]
	lb.chunk = lb.chunk[lb.blockSize:]
	return b
}

func (lb *localBackend) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	b := lb.takeBuf()
	copy(b, buf)
	lb.replace(blk, b, false)
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

func (lb *localBackend) SubmitOwned(now int64, blk int, buf []byte) (int64, error) {
	lb.replace(blk, buf, true)
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

// replace makes b the current buffer of blk. What it replaces goes to the
// undo log on the first write since the last FLUSH and is otherwise
// discarded.
func (lb *localBackend) replace(blk int, b []byte, shared bool) {
	if blk >= len(lb.bufs) {
		lb.bufs = append(lb.bufs, make([][]byte, blk+1-len(lb.bufs))...)
	}
	w, bit := blk/64, uint64(1)<<(blk%64)
	for w >= len(lb.dirty) {
		lb.dirty = append(lb.dirty, 0)
		lb.shared = append(lb.shared, 0)
	}
	old, oldShared := lb.bufs[blk], lb.shared[w]&bit != 0
	if lb.dirty[w]&bit == 0 {
		lb.dirty[w] |= bit
		lb.undo = append(lb.undo, undoRec{blk, old, oldShared})
	} else {
		lb.discard(old, oldShared)
	}
	lb.bufs[blk] = b
	if shared {
		lb.shared[w] |= bit
	} else {
		lb.shared[w] &^= bit
	}
}

// discard disposes of a buffer that has left both the table and the undo
// log: to the free list when nobody outside can hold it, to the collector
// otherwise.
func (lb *localBackend) discard(b []byte, shared bool) {
	if b != nil && !shared {
		lb.free = append(lb.free, b)
	}
}

// Flush promotes the whole write cache to the durable tier: the table
// already holds the new contents, so it only forgets how to undo them.
// Cost derives from the dirty count alone.
func (lb *localBackend) Flush(now int64) (int64, error) {
	dirtyBytes := len(lb.undo) * lb.blockSize
	for _, u := range lb.undo {
		lb.discard(u.saved, u.shared)
	}
	lb.resetUndo()
	return lb.res.AcquireSerial(now, int64(lb.model.DevFlush(dirtyBytes))), nil
}

// resetUndo empties the undo log and the dirty set.
func (lb *localBackend) resetUndo() {
	for _, u := range lb.undo {
		lb.dirty[u.blk/64] = 0
	}
	clear(lb.undo)
	lb.undo = lb.undo[:0]
}

func (lb *localBackend) DirtyBlocks() int { return len(lb.undo) }

func (lb *localBackend) Crash(keepFraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// The keep decisions are drawn in block order, not write order, so a
	// seed determines the outcome whatever order the writes arrived in.
	slices.SortFunc(lb.undo, func(a, b undoRec) int { return a.blk - b.blk })
	for _, u := range lb.undo {
		w, bit := u.blk/64, uint64(1)<<(u.blk%64)
		if rng.Float64() < keepFraction {
			// This unflushed write survives the power cut.
			lb.discard(u.saved, u.shared)
			continue
		}
		// Lost: the durable buffer comes back by pointer. The loser may be
		// in somebody's hands and is never written, restored into or, when
		// shared, reused.
		lb.discard(lb.bufs[u.blk], lb.shared[w]&bit != 0)
		lb.bufs[u.blk] = u.saved
		if u.shared {
			lb.shared[w] |= bit
		} else {
			lb.shared[w] &^= bit
		}
	}
	lb.resetUndo()
	lb.res.Reset()
}

func (lb *localBackend) QueueDepth(now int64) int { return lb.res.InUse(now) }

func (lb *localBackend) ResourceStats() vclock.ResourceStats { return lb.res.Stats() }

func (lb *localBackend) Reset() { lb.res.Reset() }

// SetRecorder is a no-op: the Device front already counts commands and
// samples queue depth; the local backend has nothing more to say.
func (lb *localBackend) SetRecorder(*trace.Recorder) {}

// DropCache is a no-op: the local backend has no cache tier.
func (lb *localBackend) DropCache() {}
