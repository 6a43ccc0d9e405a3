package kernel

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// newTestCache returns a buffer cache over a fresh device and a task on
// a kernel; the kernel and the device share one trace recorder, which
// the task's Rec reports.
func newTestCache(t *testing.T, capacity int) (*BufferCache, *Task) {
	t.Helper()
	model := costmodel.Default()
	dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return NewBufferCache(dev, model, capacity), tracedTask(dev, model)
}

// tracedTask attaches one new recorder to dev and to a new kernel, and
// returns a task of that kernel.
func tracedTask(dev *blockdev.Device, model *costmodel.Model) *Task {
	rec := trace.New()
	dev.SetRecorder(rec)
	k := New(model)
	k.SetRecorder(rec)
	return k.NewTask("bc-test")
}

// counter reads one trace counter of task's recorder.
func counter(task *Task, name string) int64 { return task.Rec().Counters()[name] }

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

	if got := bc.ResidentBlocks(); !slices.Equal(got, []int{0, 3, 4, 5}) {
		t.Fatalf("resident blocks %v, want [0 3 4 5]: 1 and 2 are the LRU victims", got)
	}
	hits, misses := counter(task, "buf_hits"), counter(task, "buf_misses")
	getRelease(t, bc, task, 0) // still resident: hit
	getRelease(t, bc, task, 3) // still resident: hit
	if h, m := counter(task, "buf_hits"), counter(task, "buf_misses"); h != hits+2 || m != misses {
		t.Fatalf("0 and 3 were evicted out of LRU order: %d hits, %d misses, was %d and %d", h, m, hits, misses)
	}
	getRelease(t, bc, task, 1) // evicted above: miss
	if m := counter(task, "buf_misses"); m != misses+1 {
		t.Fatalf("1 survived eviction: %d misses, was %d", m, misses)
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
	if got := bc.ResidentBlocks(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("resident blocks %v, want [0 1 2] (overflowed, nothing evicted)", got)
	}

	// Clean + unpin, then miss again: eviction resumes in LRU order.
	dirty, err = bc.Get(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dirty.WriteSync(task); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Release(); err != nil {
		t.Fatal(err)
	}
	if err := pinned.Release(); err != nil {
		t.Fatal(err)
	}
	getRelease(t, bc, task, 3)
	if got := bc.ResidentBlocks(); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("resident blocks %v, want [1 3]: 0 and 2 evicted in LRU order, back under capacity", got)
	}
}

// TestBufferCacheStats checks the trace counters a scripted
// hit/miss/write sequence leaves: the cache's hits and misses, and the
// device's reads and writes.
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

	want := map[string]int64{"buf_hits": 3, "buf_misses": 4, "dev_reads": 4, "dev_writes": 1}
	if got := task.Rec().Counters(); !maps.Equal(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
	if bc.Len() != 4 {
		t.Fatalf("len = %d, want 4: nothing evicted", bc.Len())
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
	run := func() map[string]int64 {
		model := costmodel.Default()
		dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		dev.SetRecorder(rec)
		k := New(model)
		k.SetRecorder(rec)
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
		return rec.Counters()
	}
	c := run()
	hits, misses := c["buf_hits"], c["buf_misses"]
	if hits+misses != 8*500 {
		t.Fatalf("hits %d + misses %d != %d gets", hits, misses, 8*500)
	}
	if c["dev_reads"] != misses {
		t.Fatalf("%d device reads for %d misses: a miss must fill exactly once", c["dev_reads"], misses)
	}
	if misses <= 256 {
		t.Fatalf("%d misses over 256 blocks: the range never overflowed the cache", misses)
	}
	if c2 := run(); !maps.Equal(c2, c) {
		t.Fatalf("replay differs: %v vs %v", c2, c)
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
	bc, task := NewBufferCache(dev, model, 2), tracedTask(dev, model)
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
	if h, m := counter(task, "buf_hits"), counter(task, "buf_misses"); h != 0 || m != 3 {
		t.Fatalf("after the failed read: %d hits, %d misses; want 0 and 3", h, m)
	}

	pb.fail = nil
	getRelease(t, bc, task, 7)
	getRelease(t, bc, task, 7)
	if probes != 2 {
		t.Fatalf("block 7 was read %d times, want the failed read and the retry", probes)
	}
	if h, m := counter(task, "buf_hits"), counter(task, "buf_misses"); h != 1 || m != 4 {
		t.Fatalf("%d hits, %d misses; want the retry's miss and the hit: 1 and 4", h, m)
	}
	if got := bc.ResidentBlocks(); !slices.Equal(got, []int{1, 7}) {
		t.Fatalf("resident blocks %v, want [1 7]: the retry filled free room", got)
	}
}
