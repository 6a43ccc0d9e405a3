package kernel

import (
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
)

func benchCache(b *testing.B, capacity int) (*BufferCache, *Task) {
	b.Helper()
	model := costmodel.Default()
	dev, err := blockdev.New(blockdev.Config{Blocks: 1 << 16, Model: model})
	if err != nil {
		b.Fatal(err)
	}
	k := New(model)
	return NewBufferCache(dev, model, capacity), k.NewTask("bench")
}

// BenchmarkBufferCacheHit measures the steady-state hit path: lookup,
// recency touch, pin, unpin.
func BenchmarkBufferCacheHit(b *testing.B) {
	bc, task := benchCache(b, DefaultBufferCacheCap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bh, err := bc.Get(task, i%1024)
		if err != nil {
			b.Fatal(err)
		}
		if err := bh.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferCacheMiss measures the steady-state miss path at
// capacity: every access allocates, evicts the exact LRU victim, and
// reads the device. This is the path that was O(n) per miss before the
// intrusive-LRU rewrite.
func BenchmarkBufferCacheMiss(b *testing.B) {
	bc, task := benchCache(b, 4096)
	// Scan twice the capacity cyclically: once warm, every access misses.
	for blk := 0; blk < 8192; blk++ {
		bh, err := bc.Get(task, blk)
		if err != nil {
			b.Fatal(err)
		}
		bh.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bh, err := bc.Get(task, i%8192)
		if err != nil {
			b.Fatal(err)
		}
		if err := bh.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferCacheChurn mixes hot-set hits with cold misses while a
// slice of the cache sits dirty and pinned, exercising the
// skip-pinned/dirty eviction walk.
func BenchmarkBufferCacheChurn(b *testing.B) {
	bc, task := benchCache(b, 4096)
	// Pin 64 buffers and dirty 256 more so eviction has to skip them.
	var pinned []*BufferHead
	for blk := 0; blk < 64; blk++ {
		bh, err := bc.Get(task, blk)
		if err != nil {
			b.Fatal(err)
		}
		pinned = append(pinned, bh)
	}
	for blk := 64; blk < 320; blk++ {
		bh, err := bc.Get(task, blk)
		if err != nil {
			b.Fatal(err)
		}
		bh.MarkDirty()
		bh.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var blk int
		if i%4 == 0 {
			blk = 8192 + i%16384 // cold: miss + evict
		} else {
			blk = 1024 + i%2048 // hot set
		}
		bh, err := bc.Get(task, blk)
		if err != nil {
			b.Fatal(err)
		}
		if err := bh.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, bh := range pinned {
		bh.Release()
	}
}
