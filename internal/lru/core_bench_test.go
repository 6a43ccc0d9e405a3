package lru

import (
	"math/rand"
	"testing"
)

// benchResident is the number of keys the lookup benchmarks keep cached:
// a 16 MiB file's worth of pages.
const benchResident = 4096

var sinkEnt *ent

func residentCore() *Core[*ent] {
	c := &Core[*ent]{}
	for k := int64(0); k < benchResident; k++ {
		c.Add(k, &ent{val: int(k)})
	}
	return c
}

// BenchmarkCorePeekSeq is the page cache under a streaming read: one
// probe per page, ascending.
func BenchmarkCorePeekSeq(b *testing.B) {
	c := residentCore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEnt, _ = c.Peek(int64(i % benchResident))
	}
}

// BenchmarkCorePeekRand is the same probe at random offsets.
func BenchmarkCorePeekRand(b *testing.B) {
	c := residentCore()
	keys := make([]int64, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Int63n(benchResident)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkEnt, _ = c.Peek(keys[i%len(keys)])
	}
}

// BenchmarkCoreDirtyCycle is one write-back pass over a 1 MiB dirty run:
// mark 256 pages, collect the dirty keys in order, clean them all.
func BenchmarkCoreDirtyCycle(b *testing.B) {
	c := residentCore()
	var keys []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := int64(i*256) % benchResident
		for k := base; k < base+256; k++ {
			c.MarkDirty(k)
		}
		keys = c.AppendDirtyKeys(keys[:0])
		if c.ClearAllDirty() != 256 || len(keys) != 256 {
			b.Fatalf("cycle cleaned %d keys", len(keys))
		}
	}
}
