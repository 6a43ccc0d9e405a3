// BenchmarkAllocs is the allocation-budget suite: steady-state Go
// allocations per operation on the warm hot paths, per (variant × op)
// cell. Unlike the virtual-time benchmarks above, the figure of merit
// here is the host-side allocs/op column of -benchmem — GC pressure is
// host behaviour, the one axis the virtual clock cannot see. The
// contract (enforced by cmd/allocgate against ALLOC_budget.json in CI):
// warm-cache-hit reads and stats allocate nothing; writes and
// creates stay within a small fixed budget. Bento and ext4 also carry
// two netstore-backend cells (cold 128 KiB reads, fsync'd 128 KiB
// writes), which put the object tier's miss, copy-on-write and PUT
// paths under the same budget, and FUSE carries the same two shapes on
// the local backend, which put its transport's streaming path — 128 KiB
// WRITE requests, page-sized READs through read-ahead, the user-level
// block cache — under it too.
//
// Run:
//
//	go test -run '^$' -bench '^BenchmarkAllocs' -benchmem
//
// Regenerate the budget after an intentional change:
//
//	go test -run '^$' -bench '^BenchmarkAllocs' -benchmem | \
//	    go run ./cmd/allocgate -update ALLOC_budget.json
package bento

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"bento/internal/filebench"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
)

// allocVariants are the rows of the allocation budget. The three
// in-kernel variants carry the zero-alloc warm-path contract, and so
// does FUSE: the asymmetry the paper measures is virtual-time charges,
// while the host-side transport works in session-owned buffers. What its
// create cell still allocates is the hosted xv6 file system's journal
// and name strings.
var allocVariants = []string{
	harness.VariantBento,
	harness.VariantCKernel,
	harness.VariantExt4,
	harness.VariantFUSE,
}

// allocNetVariants are the rows that also carry netstore-backend cells:
// one Bento-stack and one native variant are enough to put the object
// tier (GET/PUT booking, object cache, buffer hand-over) under the
// budget without doubling the suite.
var allocNetVariants = []string{
	harness.VariantBento,
	harness.VariantExt4,
}

// allocTarget mounts a fresh variant on the named storage backend for
// alloc measurement.
func allocTarget(b *testing.B, variant, backend string) (filebench.Target, *kernel.Task) {
	b.Helper()
	o := harness.Quick()
	o.Backend = backend
	tg, err := harness.NewTarget(variant, o)
	if err != nil {
		b.Fatal(err)
	}
	return tg, tg.K.NewTask("allocbench")
}

// warmFile creates path with pages pages of data and reads it once so
// every page is cache-resident.
func warmFile(b *testing.B, tg filebench.Target, task *kernel.Task, path string, pages int) {
	b.Helper()
	data := make([]byte, pages*fsapi.PageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := tg.M.WriteFile(task, path, data); err != nil {
		b.Fatal(err)
	}
	if _, err := tg.M.ReadFile(task, path); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllocs(b *testing.B) {
	for _, variant := range allocVariants {
		b.Run(variant, func(b *testing.B) {
			b.Run("read4k", func(b *testing.B) { benchAllocRead(b, variant) })
			b.Run("stat", func(b *testing.B) { benchAllocStat(b, variant) })
			b.Run("lookup", func(b *testing.B) { benchAllocLookup(b, variant) })
			b.Run("write4k", func(b *testing.B) { benchAllocWrite(b, variant) })
			b.Run("create", func(b *testing.B) { benchAllocCreate(b, variant) })
			if slices.Contains(allocNetVariants, variant) {
				b.Run("netread128k", func(b *testing.B) { benchAllocStreamRead(b, variant, harness.BackendNetstore) })
				b.Run("netwrite128k", func(b *testing.B) { benchAllocStreamWrite(b, variant, harness.BackendNetstore) })
			}
			if variant == harness.VariantFUSE {
				b.Run("read128k", func(b *testing.B) { benchAllocStreamRead(b, variant, harness.BackendLocal) })
				b.Run("write128k", func(b *testing.B) { benchAllocStreamWrite(b, variant, harness.BackendLocal) })
			}
		})
	}
}

// benchAllocRead measures warm-cache-hit 4K reads: every page of the
// file is resident, so the loop exercises page-cache lookup + copy only.
func benchAllocRead(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant, harness.BackendLocal)
	const pages = 256 // 1 MiB working file
	warmFile(b, tg, task, "/readfile", pages)
	f, err := tg.M.Open(task, "/readfile", fsapi.ORdonly)
	if err != nil {
		b.Fatal(err)
	}
	defer tg.M.Close(task, f)
	buf := make([]byte, fsapi.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := f.PRead(task, buf, off); err != nil {
			b.Fatal(err)
		}
		off += fsapi.PageSize
		if off >= pages*fsapi.PageSize {
			off = 0
		}
	}
}

// benchAllocStat measures a warm stat: the dentry is cached and the
// vnode resident, so the loop is dcache hit + GetAttr.
func benchAllocStat(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant, harness.BackendLocal)
	warmFile(b, tg, task, "/statfile", 1)
	if _, err := tg.M.Stat(task, "/statfile"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.M.Stat(task, "/statfile"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllocLookup measures a warm multi-component path walk (three
// dcache hits per op).
func benchAllocLookup(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant, harness.BackendLocal)
	if err := tg.M.Mkdir(task, "/lkdir"); err != nil {
		b.Fatal(err)
	}
	if err := tg.M.Mkdir(task, "/lkdir/sub"); err != nil {
		b.Fatal(err)
	}
	warmFile(b, tg, task, "/lkdir/sub/file", 1)
	if _, err := tg.M.Stat(task, "/lkdir/sub/file"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.M.Stat(task, "/lkdir/sub/file"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllocWrite measures steady-state 4K overwrites of a warm file:
// pages are resident and repeatedly re-dirtied, so the loop pays page
// lookup + copy + dirty tracking, plus the amortized background
// write-back the dirty budget forces.
func benchAllocWrite(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant, harness.BackendLocal)
	const pages = 256
	warmFile(b, tg, task, "/writefile", pages)
	f, err := tg.M.Open(task, "/writefile", fsapi.ORdwr)
	if err != nil {
		b.Fatal(err)
	}
	defer tg.M.Close(task, f)
	buf := make([]byte, fsapi.PageSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := f.PWrite(task, buf, off); err != nil {
			b.Fatal(err)
		}
		off += fsapi.PageSize
		if off >= pages*fsapi.PageSize {
			off = 0
		}
	}
}

// benchAllocCreate measures the create+unlink pair (create, write one
// page, fsync, close, unlink) — the journaled metadata path. Deleting
// each file keeps the namespace and inode table at steady state no
// matter how large b.N grows.
func benchAllocCreate(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant, harness.BackendLocal)
	if err := tg.M.Mkdir(task, "/createdir"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, fsapi.PageSize)
	// Pre-build the path names so the loop measures the kernel path, not
	// the benchmark's own string formatting. Names cycle over a fixed
	// window: the file is unlinked each iteration, so reuse is safe.
	const nameWindow = 1024
	names := make([]string, nameWindow)
	for i := range names {
		names[i] = "/createdir/f" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := names[i%nameWindow]
		f, err := tg.M.Open(task, p, fsapi.OCreate|fsapi.OWronly)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Write(task, payload); err != nil {
			b.Fatal(err)
		}
		if err := f.FSync(task); err != nil {
			b.Fatal(err)
		}
		if err := tg.M.Close(task, f); err != nil {
			b.Fatal(err)
		}
		if err := tg.M.Unlink(task, p); err != nil {
			b.Fatal(err)
		}
	}
}

// streamFileBytes is the streaming cells' working file: twice the
// netstore object cache (netstore.DefaultCacheObjects x 64 KiB = 4 MiB),
// so a sequential pass cannot be served from it.
const (
	streamIOBytes   = 128 << 10
	streamFileBytes = 8 << 20
)

// streamFile mounts variant on backend and opens a streamFileBytes file
// whose every block (on netstore: every object) already exists durably,
// so the measured loop's writes replace storage instead of growing it.
func streamFile(b *testing.B, variant, backend string, flags int) (filebench.Target, *kernel.Task, *kernel.File) {
	b.Helper()
	tg, task := allocTarget(b, variant, backend)
	warmFile(b, tg, task, "/streamfile", streamFileBytes/fsapi.PageSize)
	if err := tg.M.Sync(task); err != nil {
		b.Fatal(err)
	}
	f, err := tg.M.Open(task, "/streamfile", flags)
	if err != nil {
		b.Fatal(err)
	}
	return tg, task, f
}

// benchAllocStreamRead measures cold sequential 128 KiB reads: every
// cache above the backend is dropped before each pass over the file
// (outside the timer), so the loop pays read-ahead, the fs block map and
// 32 backend reads per op — on netstore, two GET misses and the object
// tier's miss path; behind FUSE, 32 READ round trips.
func benchAllocStreamRead(b *testing.B, variant, backend string) {
	tg, task, f := streamFile(b, variant, backend, fsapi.ORdonly)
	defer tg.M.Close(task, f)
	buf := make([]byte, streamIOBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if off == 0 {
			b.StopTimer()
			tg.M.DropCaches()
			b.StartTimer()
		}
		if _, err := f.PRead(task, buf, off); err != nil {
			b.Fatal(err)
		}
		if off += streamIOBytes; off >= streamFileBytes {
			off = 0
		}
	}
}

// benchAllocStreamWrite measures sequential 128 KiB overwrites with an
// fsync every 8 ops: write-back and the journal commit, and below them —
// on netstore — read-modify-write GETs, copy-on-write, eviction and
// flush PUTs over objects that already exist durably; behind FUSE, one
// gathered 128 KiB WRITE round trip per op.
func benchAllocStreamWrite(b *testing.B, variant, backend string) {
	tg, task, f := streamFile(b, variant, backend, fsapi.ORdwr)
	defer tg.M.Close(task, f)
	buf := make([]byte, streamIOBytes)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := f.PWrite(task, buf, off); err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			if err := f.FSync(task); err != nil {
				b.Fatal(err)
			}
		}
		if off += streamIOBytes; off >= streamFileBytes {
			off = 0
		}
	}
}

var _ = fmt.Sprintf // keep fmt available for debugging helpers
