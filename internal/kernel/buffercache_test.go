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
// cache a quarter the size of the range, and checks the fill protocol's
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
