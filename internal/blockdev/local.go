package blockdev

import (
	"math/rand"
	"slices"

	"bento/internal/costmodel"
	"bento/internal/lru"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// slabBlocks is how many consecutive blocks share one allocation (64 KiB
// at the default block size). 16 rather than 64: internal/crashtort builds
// some two thousand 16 MiB devices whose file systems each touch a few
// scattered metadata regions, and with 256 KiB slabs its wall time rose
// 8-15 % (the allocator's madvise traffic on large short-lived objects)
// where 64 KiB slabs leave it level with one allocation per block; the
// streaming benchmark workloads measured no slower at 16 than at 64. Must
// not exceed 64: one word of the present and dirty bitsets covers one slab.
const slabBlocks = 16

// localBackend is the RAM-backed NVMe model: the storage half of the
// historical Device, factored behind the Backend interface. Commands
// are priced by the cost model's Dev* entries and booked on a
// vclock.Resource with DevChannels service channels (queue-pair
// parallelism); writes land in a volatile write cache that a FLUSH
// promotes to the durable tier.
//
// Storage is slabs plus an undo log. Current contents (unflushed writes
// included) live in lazily allocated slabs: slab i holds blocks
// [i*slabBlocks, (i+1)*slabBlocks), a nil slab reads as zeros, and the
// table grows as higher blocks are written, so a multi-GiB device costs
// host memory only around the blocks actually written. The volatile write
// cache is the undo log, an append-only slice with one dirty bit per block
// beside it: the first write of a block since the last FLUSH sets the bit
// and appends the block's durable image, later writes see the bit and
// overwrite the slab in place, a FLUSH forgets the saved images (what the
// slabs hold is now durable) and a crash copies back the ones whose writes
// do not survive. A block that has never been written has no image to
// save — its undo record's image is nil and a lost write clears it —
// which is every block of a freshly written file: a streaming write copies
// each block once and allocates nothing. Saved images come from, and go
// back to, the backend's own free list (images).
type localBackend struct {
	blockSize int
	slabs     [][]byte     // current contents
	present   []uint64     // bit blk: block blk has been written (slab si's word is present[si])
	dirty     []uint64     // bit blk: block blk has an undo record (written since the last FLUSH)
	undo      []undoRec    // one record per dirty block, in first-write order
	images    *lru.BufPool // retired undo images
	res       *vclock.Resource
	model     *costmodel.Model
}

// undoRec is how to take back the unflushed writes of one block.
type undoRec struct {
	blk   int
	saved []byte // the durable image; nil: never written, a lost write clears the block
}

// NewLocalBackend returns the RAM-backed local backend the Device uses
// by default. It is exported so factories that take an explicit
// Config.Backend (the storage conformance suite, for one) can construct
// the local implementation the same way they construct remote ones.
func NewLocalBackend(name string, blockSize int, model *costmodel.Model) Backend {
	return &localBackend{
		blockSize: blockSize,
		images:    lru.NewBufPool(blockSize),
		res:       vclock.NewResource(name, model.DevChannels),
		model:     model,
	}
}

// block returns blk's bytes inside its slab, or nil when no block of that
// slab has been written yet.
func (lb *localBackend) block(blk int) []byte {
	si := blk / slabBlocks
	if si >= len(lb.slabs) || lb.slabs[si] == nil {
		return nil
	}
	off := blk % slabBlocks * lb.blockSize
	return lb.slabs[si][off : off+lb.blockSize]
}

func (lb *localBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if b := lb.block(blk); b != nil {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

func (lb *localBackend) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	si, bit := blk/slabBlocks, uint64(1)<<(blk%slabBlocks)
	for si >= len(lb.slabs) {
		lb.slabs = append(lb.slabs, nil)
		lb.present = append(lb.present, 0)
		lb.dirty = append(lb.dirty, 0)
	}
	if lb.slabs[si] == nil {
		lb.slabs[si] = make([]byte, slabBlocks*lb.blockSize)
	}
	b := lb.block(blk)
	if lb.dirty[si]&bit == 0 {
		lb.dirty[si] |= bit
		var saved []byte
		if lb.present[si]&bit != 0 {
			saved = lb.images.Get()
			copy(saved, b)
		}
		lb.present[si] |= bit
		lb.undo = append(lb.undo, undoRec{blk, saved})
	}
	copy(b, buf)
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

// retireUndo empties the undo log, keeping its buffers for reuse.
func (lb *localBackend) retireUndo() {
	for _, u := range lb.undo {
		if u.saved != nil {
			lb.images.Put(u.saved)
		}
		lb.dirty[u.blk/slabBlocks] = 0
	}
	clear(lb.undo)
	lb.undo = lb.undo[:0]
}

// Flush promotes the whole write cache to the durable tier: the slabs
// already hold the new contents, so it only forgets how to undo them.
// Cost derives from the dirty count alone.
func (lb *localBackend) Flush(now int64) (int64, error) {
	dirtyBytes := len(lb.undo) * lb.blockSize
	lb.retireUndo()
	return lb.res.AcquireSerial(now, int64(lb.model.DevFlush(dirtyBytes))), nil
}

func (lb *localBackend) DirtyBlocks() int { return len(lb.undo) }

func (lb *localBackend) Crash(keepFraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// The keep decisions are drawn in block order, not write order, so a
	// seed determines the outcome whatever order the writes arrived in.
	slices.SortFunc(lb.undo, func(a, b undoRec) int { return a.blk - b.blk })
	for _, u := range lb.undo {
		if rng.Float64() < keepFraction {
			continue // this unflushed write survives the power cut
		}
		if u.saved != nil {
			copy(lb.block(u.blk), u.saved)
		} else {
			clear(lb.block(u.blk))
			lb.present[u.blk/slabBlocks] &^= 1 << (u.blk % slabBlocks)
		}
	}
	lb.retireUndo() // only now: the loop above was still reading the images
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
