package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/vclock"
)

func newTestCache(t *testing.T, capacity int) (*BufferCache, *Task) {
	t.Helper()
	model := costmodel.Default()
	dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	k := New(model)
	return NewBufferCache(dev, model, capacity), k.NewTask("bc-test")
}

func getRelease(t *testing.T, bc *BufferCache, task *Task, blk int) {
	t.Helper()
	b, err := bc.Get(task, blk)
	if err != nil {
		t.Fatalf("Get(%d): %v", blk, err)
	}
	if err := b.Release(); err != nil {
		t.Fatalf("Release(%d): %v", blk, err)
	}
}

// TestBufferCacheExactLRU pins down victim selection: the least recently
// used clean, unpinned buffer goes first, and touching a buffer rescues
// it from eviction.
func TestBufferCacheExactLRU(t *testing.T) {
	bc, task := newTestCache(t, 4)
	for blk := 0; blk < 4; blk++ {
		getRelease(t, bc, task, blk)
	}
	getRelease(t, bc, task, 0) // 0 becomes MRU; LRU order now 1,2,3,0
	getRelease(t, bc, task, 4) // evicts 1
	getRelease(t, bc, task, 5) // evicts 2

	base := bc.Stats()
	getRelease(t, bc, task, 0) // still resident: hit
	getRelease(t, bc, task, 3) // still resident: hit
	if st := bc.Stats(); st.Hits != base.Hits+2 || st.Misses != base.Misses {
		t.Fatalf("0 and 3 were evicted out of LRU order: %+v vs %+v", st, base)
	}
	getRelease(t, bc, task, 1) // evicted above: miss
	if st := bc.Stats(); st.Misses != base.Misses+1 {
		t.Fatalf("1 survived eviction: %+v", st)
	}
}

// TestBufferCachePinnedDirtySkipped checks pinned and dirty buffers are
// never victims, and the cache overflows rather than evicting them.
func TestBufferCachePinnedDirtySkipped(t *testing.T) {
	bc, task := newTestCache(t, 2)
	pinned, err := bc.Get(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := bc.Get(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty.MarkDirty()
	if err := dirty.Release(); err != nil {
		t.Fatal(err)
	}

	getRelease(t, bc, task, 2) // everything else pinned/dirty: overflow
	if st := bc.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted a pinned or dirty buffer: %+v", st)
	}
	if bc.Len() != 3 {
		t.Fatalf("len = %d, want 3 (overflowed)", bc.Len())
	}

	// Clean + unpin, then miss again: eviction resumes in LRU order.
	if err := bc.SyncDirty(task); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Release(); err != nil {
		t.Fatal(err)
	}
	getRelease(t, bc, task, 3)
	if st := bc.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (drain back under capacity)", st.Evictions)
	}
}

// TestBufferCacheStats checks all four counters across a scripted
// hit/miss/evict/write sequence.
func TestBufferCacheStats(t *testing.T) {
	bc, task := newTestCache(t, 8)
	for blk := 0; blk < 4; blk++ {
		getRelease(t, bc, task, blk) // 4 misses
	}
	getRelease(t, bc, task, 0) // hit
	getRelease(t, bc, task, 3) // hit

	b, err := bc.Get(task, 2) // hit
	if err != nil {
		t.Fatal(err)
	}
	b.MarkDirty()
	if !b.Dirty() {
		t.Fatal("MarkDirty did not stick")
	}
	if err := b.WriteSync(task); err != nil {
		t.Fatal(err)
	}
	if b.Dirty() {
		t.Fatal("WriteSync left buffer dirty")
	}
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", b.Refs())
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}

	st := bc.Stats()
	want := BufferCacheStats{Hits: 3, Misses: 4, Evictions: 0, Writes: 1}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestBufferCacheSyncDirtyVisitsOnlyDirty marks a subset dirty and checks
// SyncDirty writes exactly that subset.
func TestBufferCacheSyncDirtyVisitsOnlyDirty(t *testing.T) {
	bc, task := newTestCache(t, 64)
	for blk := 0; blk < 16; blk++ {
		b, err := bc.Get(task, blk)
		if err != nil {
			t.Fatal(err)
		}
		if blk%4 == 0 {
			b.MarkDirty()
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	devWrites := bc.Device().Stats().Writes
	if err := bc.SyncDirty(task); err != nil {
		t.Fatal(err)
	}
	if got := bc.Device().Stats().Writes - devWrites; got != 4 {
		t.Fatalf("device writes = %d, want 4 (only the dirty set)", got)
	}
	if st := bc.Stats(); st.Writes != 4 {
		t.Fatalf("cache writes = %d, want 4", st.Writes)
	}
	for blk := 0; blk < 16; blk++ {
		b, err := bc.Get(task, blk)
		if err != nil {
			t.Fatal(err)
		}
		if b.Dirty() {
			t.Fatalf("block %d still dirty after SyncDirty", blk)
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBufferCacheInvalidateAll checks the referenced-buffer refusal and
// the post-invalidate cold state.
func TestBufferCacheInvalidateAll(t *testing.T) {
	bc, task := newTestCache(t, 8)
	b, err := bc.Get(task, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.InvalidateAll(); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("InvalidateAll with referenced buffer = %v, want ErrBusy", err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := bc.InvalidateAll(); err != nil {
		t.Fatalf("InvalidateAll: %v", err)
	}
	if bc.Len() != 0 {
		t.Fatalf("len = %d after InvalidateAll, want 0", bc.Len())
	}
	base := bc.Stats()
	getRelease(t, bc, task, 5)
	if st := bc.Stats(); st.Misses != base.Misses+1 {
		t.Fatal("block 5 survived InvalidateAll")
	}
}

// TestBufferCacheDoubleRelease checks the brelse error path.
func TestBufferCacheDoubleRelease(t *testing.T) {
	bc, task := newTestCache(t, 8)
	b, err := bc.Get(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("double release = %v, want ErrInvalid", err)
	}
}

// TestBufferCacheReadError checks the miss-fill error path: the failed
// buffer must not stay cached, and a retry re-reads the device.
func TestBufferCacheReadError(t *testing.T) {
	bc, task := newTestCache(t, 8)
	bc.Device().InjectReadError(3)
	if _, err := bc.Get(task, 3); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("Get(3) with injected fault = %v, want ErrIO", err)
	}
	if bc.Len() != 0 {
		t.Fatalf("failed fill left %d buffers resident", bc.Len())
	}
	bc.Device().ClearFaults()
	getRelease(t, bc, task, 3)
}

// TestBufferCacheConcurrentMissFill drives one block range from eight
// scheduled tasks — the only way several tasks share a cache — over a
// cache a quarter the size of the range, and checks the miss path's
// accounting: every Get is a hit or a miss, every miss is exactly one
// device read (never two fills of one block, never a hit on an unfilled
// buffer), and the interleaving replays exactly.
func TestBufferCacheConcurrentMissFill(t *testing.T) {
	run := func() (BufferCacheStats, blockdev.Stats) {
		model := costmodel.Default()
		dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		k := New(model)
		bc := NewBufferCache(dev, model, 64)
		vclock.NewGroup(0).Run(8, func(g int, w *vclock.Worker) {
			task := k.NewTaskWithClock(fmt.Sprintf("w%d", g), w.Clock())
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				w.Yield()
				blk := int(rng.Int31n(256))
				b, err := bc.Get(task, blk)
				if err != nil {
					t.Errorf("Get(%d): %v", blk, err)
					return
				}
				if b.BlockNo() != blk {
					t.Errorf("got block %d, want %d", b.BlockNo(), blk)
					return
				}
				if err := b.Release(); err != nil {
					t.Errorf("Release(%d): %v", blk, err)
					return
				}
			}
		})
		return bc.Stats(), dev.Stats()
	}
	st, ds := run()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, 8*500)
	}
	if ds.Reads != st.Misses {
		t.Fatalf("%d device reads for %d misses: a miss must fill exactly once", ds.Reads, st.Misses)
	}
	if st.Misses < 256 || st.Evictions == 0 {
		t.Fatalf("stats %+v: the range never overflowed the cache", st)
	}
	if st2, ds2 := run(); st2 != st || ds2 != ds {
		t.Fatalf("replay differs: %+v %+v vs %+v %+v", st2, ds2, st, ds)
	}
}

// probeBackend runs probe inside the device read of block blk and then
// fails that read with fail (when set), so a test can look at the cache
// while the block's fill is in flight — on the one goroutine, the way the
// fill itself runs.
type probeBackend struct {
	blockdev.Backend
	blk   int
	probe func()
	fail  error
}

func (p *probeBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if blk == p.blk {
		p.probe()
		if p.fail != nil {
			return now, p.fail
		}
	}
	return p.Backend.ReadBlock(now, blk, buf)
}

// TestBufferCacheFillBeforeInsert: a block enters the cache only once its
// device read has succeeded. During the read the block is not resident
// (and the LRU victim is already gone); a failed read leaves the cache as
// a miss plus the eviction it made room with, nothing inserted; a retry
// fills it, and a second getter hits.
func TestBufferCacheFillBeforeInsert(t *testing.T) {
	model := costmodel.Default()
	pb := &probeBackend{Backend: blockdev.NewLocalBackend("probed", 4096, model), blk: 7}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model, Backend: pb})
	bc, task := NewBufferCache(dev, model, 2), New(model).NewTask("bc-test")
	getRelease(t, bc, task, 0)
	getRelease(t, bc, task, 1)

	probes := 0
	pb.probe = func() {
		probes++
		if _, ok := bc.cache.Peek(7); ok {
			t.Error("block 7 is resident while its device read is in flight")
		}
		if got := bc.ResidentBlocks(); len(got) != 1 || got[0] != 1 {
			t.Errorf("mid-fill resident blocks = %v, want [1] (block 0 evicted)", got)
		}
	}
	boom := errors.New("device error")
	pb.fail = boom
	if _, err := bc.Get(task, 7); !errors.Is(err, boom) {
		t.Fatalf("Get(7) = %v, want the device error", err)
	}
	if bc.Len() != 1 {
		t.Fatalf("failed read left %d buffers resident, want 1", bc.Len())
	}
	if st := bc.Stats(); st != (BufferCacheStats{Misses: 3, Evictions: 1}) {
		t.Fatalf("stats after the failed read = %+v, want 3 misses and 1 eviction", st)
	}

	pb.fail = nil
	getRelease(t, bc, task, 7)
	getRelease(t, bc, task, 7)
	if probes != 2 {
		t.Fatalf("block 7 was read %d times, want the failed read and the retry", probes)
	}
	if st := bc.Stats(); st != (BufferCacheStats{Hits: 1, Misses: 4, Evictions: 1}) {
		t.Fatalf("stats = %+v, want the retry's miss (into free room) and the hit", st)
	}
}
