package kernel

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/lru"
	"bento/internal/trace"
)

// BufferCache is the kernel's block buffer cache: the sb_bread/brelse
// interface file systems use for metadata I/O. Buffers are reference
// counted; clean, unreferenced buffers are evicted in LRU order once the
// cache reaches capacity. Lookup, touch, and eviction are all O(1) via
// the shared intrusive-LRU infrastructure in internal/lru; sync paths
// visit only the explicit dirty set.
type BufferCache struct {
	dev   *blockdev.Device
	model *costmodel.Model

	cache  *lru.Cache[*BufferHead]
	writes int64

	directReads  int64
	directWrites int64
}

// BufferCacheStats counts cache traffic. DirectReads/DirectWrites count
// the bypass path: block I/O that went straight between the device and
// caller-owned pages without populating the cache.
type BufferCacheStats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	Writes       int64
	DirectReads  int64
	DirectWrites int64
}

// BufferHead is one cached block, the analogue of struct buffer_head. A
// miss reads the block before the buffer enters the cache, so a resident
// buffer always holds valid data and a failed read leaves nothing behind.
type BufferHead struct {
	node lru.Node
	bc   *BufferCache
	data []byte
}

// LRUNode exposes the intrusive cache hook (lru.Entry).
func (b *BufferHead) LRUNode() *lru.Node { return &b.node }

// DefaultBufferCacheCap bounds the buffer cache at 4096 blocks (16 MiB of
// 4K blocks), enough that hot metadata stays resident in every workload.
const DefaultBufferCacheCap = 4096

// NewBufferCache creates a buffer cache over dev (capacity <= 0 selects
// DefaultBufferCacheCap). Victim selection is exactly global LRU.
func NewBufferCache(dev *blockdev.Device, model *costmodel.Model, capacity int) *BufferCache {
	if capacity <= 0 {
		capacity = DefaultBufferCacheCap
	}
	return &BufferCache{
		dev:   dev,
		model: model,
		cache: lru.New[*BufferHead](capacity),
	}
}

// Device reports the underlying block device.
func (bc *BufferCache) Device() *blockdev.Device { return bc.dev }

// Stats returns a snapshot of cache counters.
func (bc *BufferCache) Stats() BufferCacheStats {
	cs := bc.cache.Stats()
	return BufferCacheStats{
		Hits:         cs.Hits,
		Misses:       cs.Misses,
		Evictions:    cs.Evictions,
		Writes:       bc.writes,
		DirectReads:  bc.directReads,
		DirectWrites: bc.directWrites,
	}
}

// Len reports the number of resident buffers.
func (bc *BufferCache) Len() int { return bc.cache.Len() }

// Get returns the buffer for blk with its reference count incremented,
// reading it from the device on a miss (sb_bread). The caller must
// Release it exactly once.
func (bc *BufferCache) Get(t *Task, blk int) (*BufferHead, error) {
	return bc.get(t, blk, true)
}

// GetNoRead returns the buffer for blk without reading the device even on
// a miss — for blocks the caller will fully overwrite. The buffer contents
// are zeroed on a miss.
func (bc *BufferCache) GetNoRead(t *Task, blk int) (*BufferHead, error) {
	return bc.get(t, blk, false)
}

func (bc *BufferCache) get(t *Task, blk int, read bool) (*BufferHead, error) {
	if blk < 0 || blk >= bc.dev.Blocks() {
		return nil, fmt.Errorf("buffercache: block %d: %w", blk, fsapi.ErrInvalid)
	}
	t.Charge(bc.model.BufferCacheLookup)

	b, hit, err := bc.cache.Get(int64(blk), func(*BufferHead, bool) (*BufferHead, error) {
		t.rec.Add(trace.CtrBufMisses, 1)
		nb := &BufferHead{bc: bc, data: make([]byte, bc.dev.BlockSize())}
		if read {
			start := t.Clk.NowNS()
			if err := bc.dev.Read(t.Clk, blk, nb.data); err != nil {
				return nil, err
			}
			if r := t.rec; r != nil {
				r.Span(t.Name, trace.CatDevice, "bread", start, t.Clk.NowNS())
			}
		}
		return nb, nil
	})
	if hit {
		t.rec.Add(trace.CtrBufHits, 1)
	}
	return b, err
}

// SyncDirty submits every dirty buffer to the device as one batch (filling
// the device queues), waits for completion, and marks them clean. It does
// NOT issue a FLUSH; callers that need durability also call
// Device().Flush. Only the dirty set is visited, in block order.
func (bc *BufferCache) SyncDirty(t *Task) error {
	var last int64
	for _, b := range bc.cache.DirtyEntries() {
		done, err := bc.dev.Submit(t.Clk, b.BlockNo(), b.data)
		if err != nil {
			return err
		}
		bc.cache.ClearDirty(b)
		bc.writes++
		if done > last {
			last = done
		}
	}
	t.WaitIO("sync-dirty", last)
	return nil
}

// ReadDirect reads block blk from the device straight into buf (one
// block) without inserting it into the cache — the data path of the
// single-copy caching model: file contents live only in the page cache,
// and the buffer cache keeps its capacity for metadata. Coherence
// follows O_DIRECT: a resident copy, which can only be left over from
// the block's earlier life as metadata, is flushed if dirty and then
// invalidated, so the device read that follows observes every completed
// write.
func (bc *BufferCache) ReadDirect(t *Task, blk int, buf []byte) error {
	_, err := bc.readDirect(t, blk, buf, false)
	return err
}

// BorrowDirect is ReadDirect by reference: the same setup cost, coherence
// step, counters, device command and span, but instead of filling a
// caller's buffer it returns the device's own (blockdev.Device.Borrow) —
// a read-only view that stays valid and unchanged for as long as the
// caller holds it. A nil view with a nil error means the block reads as
// zeros.
func (bc *BufferCache) BorrowDirect(t *Task, blk int) ([]byte, error) {
	return bc.readDirect(t, blk, nil, true)
}

func (bc *BufferCache) readDirect(t *Task, blk int, buf []byte, borrow bool) (view []byte, err error) {
	if blk < 0 || blk >= bc.dev.Blocks() {
		return nil, fmt.Errorf("buffercache: direct read of block %d: %w", blk, fsapi.ErrInvalid)
	}
	t.Charge(bc.model.DirectReadSetup)
	if err := bc.invalidate(t, blk); err != nil {
		return nil, err
	}
	bc.directReads++
	t.rec.Add(trace.CtrDirectReads, 1)
	start := t.Clk.NowNS()
	if borrow {
		view, err = bc.dev.Borrow(t.Clk, blk)
	} else {
		err = bc.dev.Read(t.Clk, blk, buf)
	}
	if err != nil {
		return nil, err
	}
	if r := t.rec; r != nil {
		r.Span(t.Name, trace.CatDevice, "direct-read", start, t.Clk.NowNS())
	}
	return view, nil
}

// WriteDirect submits a write of buf to block blk without going through
// the cache and returns the command's completion time; callers batch
// several submits and AdvanceTo the latest, exploiting the device
// queues exactly as the buffered SubmitWrite path does. Any resident
// copy is invalidated first (its content predates this write). The
// write is volatile until a device FLUSH, like every other write.
func (bc *BufferCache) WriteDirect(t *Task, blk int, buf []byte) (completion int64, err error) {
	return bc.writeDirect(t, blk, buf, false)
}

// WriteDirectOwned is WriteDirect by reference: the device keeps buf
// instead of copying it (blockdev.Device.SubmitOwned), so the caller must
// not write buf again, whatever the call returns.
func (bc *BufferCache) WriteDirectOwned(t *Task, blk int, buf []byte) (completion int64, err error) {
	return bc.writeDirect(t, blk, buf, true)
}

func (bc *BufferCache) writeDirect(t *Task, blk int, buf []byte, owned bool) (completion int64, err error) {
	if blk < 0 || blk >= bc.dev.Blocks() {
		return 0, fmt.Errorf("buffercache: direct write of block %d: %w", blk, fsapi.ErrInvalid)
	}
	t.Charge(bc.model.DirectWriteSetup)
	bc.cache.Drop(int64(blk))
	var done int64
	if owned {
		done, err = bc.dev.SubmitOwned(t.Clk, blk, buf)
	} else {
		done, err = bc.dev.Submit(t.Clk, blk, buf)
	}
	if err != nil {
		return 0, err
	}
	bc.directWrites++
	t.rec.Add(trace.CtrDirectWrites, 1)
	return done, nil
}

// invalidate removes a resident copy of blk before direct I/O, writing
// it out first when dirty so the device holds its latest content (the
// generic_file_direct_write "flush then invalidate" discipline).
func (bc *BufferCache) invalidate(t *Task, blk int) error {
	b, ok := bc.cache.Peek(int64(blk))
	if !ok {
		return nil
	}
	if b.node.Dirty() {
		if err := b.WriteSync(t); err != nil {
			return err
		}
	}
	bc.cache.Drop(int64(blk))
	return nil
}

// DropClean evicts every clean, unreferenced buffer (the buffer-cache
// half of drop_caches); dirty and referenced buffers stay. It reports
// how many buffers were dropped.
func (bc *BufferCache) DropClean() int { return bc.cache.DropClean() }

// ResidentBlocks lists the cached block numbers in ascending order
// (diagnostics; the data-bypass tests assert data blocks never appear).
func (bc *BufferCache) ResidentBlocks() []int {
	keys := bc.cache.Keys()
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = int(k)
	}
	return out
}

// InvalidateAll drops every buffer. Crash-recovery tests call it after a
// device crash so stale cached contents cannot mask lost writes. It
// fails if any buffer is still referenced.
func (bc *BufferCache) InvalidateAll() error {
	return bc.cache.Reset(func(b *BufferHead) error {
		if b.node.Refs() != 0 {
			return fmt.Errorf("buffercache: block %d still referenced: %w", b.BlockNo(), fsapi.ErrBusy)
		}
		return nil
	})
}

// BlockNo reports which block this buffer caches.
func (b *BufferHead) BlockNo() int { return int(b.node.Key()) }

// Data exposes the buffer's contents; valid while the caller holds its
// reference.
func (b *BufferHead) Data() []byte { return b.data }

// MarkDirty flags the buffer as modified. A dirty buffer is written out by
// SubmitWrite/WriteSync or SyncDirty.
func (b *BufferHead) MarkDirty() {
	b.bc.cache.MarkDirty(b)
}

// Dirty reports whether the buffer has unwritten modifications.
func (b *BufferHead) Dirty() bool { return b.node.Dirty() }

// Refs reports the current reference count (for leak diagnostics).
func (b *BufferHead) Refs() int { return b.node.Refs() }

// SubmitWrite queues the buffer's contents to the device and returns the
// completion time without waiting; the buffer is marked clean. Writers
// batch several SubmitWrites and AdvanceTo the latest completion.
func (b *BufferHead) SubmitWrite(t *Task) (completion int64, err error) {
	done, err := b.bc.dev.Submit(t.Clk, b.BlockNo(), b.data)
	if err != nil {
		return 0, err
	}
	b.bc.cache.ClearDirty(b)
	b.bc.writes++
	return done, nil
}

// WriteSync writes the buffer and waits for completion.
func (b *BufferHead) WriteSync(t *Task) error {
	done, err := b.SubmitWrite(t)
	if err != nil {
		return err
	}
	t.WaitIO("bwrite", done)
	return nil
}

// Release drops one reference (brelse). Releasing an unreferenced buffer
// is a bug in the caller and returns an error.
func (b *BufferHead) Release() error {
	if !b.bc.cache.Release(b) {
		return fmt.Errorf("buffercache: double release of block %d: %w", b.BlockNo(), fsapi.ErrInvalid)
	}
	return nil
}
