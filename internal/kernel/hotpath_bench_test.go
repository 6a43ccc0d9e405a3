package kernel_test

import (
	"fmt"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// hotMount is the shape of benchmark/'s hot-read workload at package
// scale: the default cost model (every Charge books the 8-CPU pool), 32
// warmed 512 KiB files on memfs, one task. Nothing below the kernel does
// any work, so these time the in-cell syscall path itself.
func hotMount(tb testing.TB) (*kernel.Mount, *kernel.Task, []string) {
	tb.Helper()
	model := costmodel.Default()
	k := kernel.New(model)
	if err := k.Register(memfs.Type{}); err != nil {
		tb.Fatal(err)
	}
	task := k.NewTask("hot")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: model})
	m, err := k.Mount(task, "memfs", "/mnt", dev)
	if err != nil {
		tb.Fatal(err)
	}
	paths := make([]string, 32)
	data := make([]byte, 512<<10)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hot%02d", i)
		if err := m.WriteFile(task, paths[i], data); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.Stat(task, paths[i]); err != nil { // warm the dcache
			tb.Fatal(err)
		}
	}
	return m, task, paths
}

// preadHot returns one warm 4 KiB pread at a page-straddling offset (as
// most of hot-read's draws are): two page-cache hits, two copies.
func preadHot(tb testing.TB) func(i int) {
	m, task, paths := hotMount(tb)
	f, err := m.Open(task, paths[0], fsapi.ORdonly)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, fsapi.PageSize)
	return func(i int) {
		off := int64(i%120)*fsapi.PageSize + 512
		if n, err := f.PRead(task, buf, off); err != nil || n != len(buf) {
			tb.Fatalf("pread = %d, %v", n, err)
		}
	}
}

// statHot returns one warm stat: a dcache hit and a GetAttr.
func statHot(tb testing.TB) func(i int) {
	m, task, paths := hotMount(tb)
	return func(i int) {
		if _, err := m.Stat(task, paths[i%len(paths)]); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkPRead4KHot(b *testing.B) {
	op := preadHot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func BenchmarkStatHot(b *testing.B) {
	op := statHot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkPageChurn is the cold half of a streaming cell: fill 128 KiB
// of page cache from the file system, drop it, fill it again — every page
// taken from and returned to the mount's free list.
func BenchmarkPageChurn(b *testing.B) {
	m, task, paths := hotMount(b)
	f, err := m.Open(task, paths[0], fsapi.ORdonly)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 128<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DropCaches()
		if n, err := f.PRead(task, buf, 0); err != nil || n != len(buf) {
			b.Fatalf("pread = %d, %v", n, err)
		}
	}
}

// BenchmarkTaskCharge is one CPU-pool booking from a task that waits for
// each of its bookings — the Resource's horizon hit, five times per warm
// pread.
func BenchmarkTaskCharge(b *testing.B) {
	task := kernel.New(costmodel.Default()).NewTask("charge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		task.Charge(100 * time.Nanosecond)
	}
}

// TestHotPathsDoNotAllocate is the benchmarks' allocation sibling: the
// warm pread, stat and charge paths allocate nothing.
func TestHotPathsDoNotAllocate(t *testing.T) {
	task := kernel.New(costmodel.Default()).NewTask("charge")
	for _, c := range []struct {
		name string
		op   func(i int)
	}{
		{"pread4k", preadHot(t)},
		{"stat", statHot(t)},
		{"charge", func(int) { task.Charge(100 * time.Nanosecond) }},
	} {
		i := 0
		if got := testing.AllocsPerRun(200, func() { c.op(i); i++ }); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
}
