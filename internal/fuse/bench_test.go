package fuse

import (
	"testing"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// blockFS is the smallest hosted file system that exercises the whole
// transport and the UserDisk under it, and nothing else: inode n is the
// run of blockFSFileBlocks device blocks starting at n*blockFSFileBlocks.
// Reads go through the user-level cache, writes around it (the two paths
// the xv6 file system uses for metadata and for bypassed data). It
// allocates nothing itself, so what the tests and benchmarks below
// measure is internal/fuse. Methods it does not define panic through
// the nil embedded interface.
type blockFS struct {
	core.FileSystem
	disk bentoks.Disk
}

const (
	blockFSFileBlocks = 1024
	blockSize         = 4096
)

func (fs *blockFS) Init(_ *kernel.Task, disk bentoks.Disk) error {
	fs.disk = disk
	return nil
}

func (fs *blockFS) GetAttr(_ *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	return fsapi.Stat{Ino: ino, Size: blockFSFileBlocks * blockSize, Nlink: 1, Type: fsapi.TypeFile}, nil
}

func (fs *blockFS) Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error) {
	blk := int(ino)*blockFSFileBlocks + int(off/blockSize)
	for done := 0; done < len(buf); done += blockSize {
		if err := fs.disk.ReadBlockRange(t, blk, 0, buf[done:done+blockSize]); err != nil {
			return done, err
		}
		blk++
	}
	return len(buf), nil
}

func (fs *blockFS) Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error) {
	blk := int(ino)*blockFSFileBlocks + int(off/blockSize)
	for done := 0; done < len(data); done += blockSize {
		if _, err := fs.disk.BWriteDirect(t, blk, data[done:done+blockSize]); err != nil {
			return done, err
		}
		blk++
	}
	return len(data), nil
}

// refBlockFS is blockFS with the by-reference twins of its two data
// paths: the page-vector write hands each page to the disk file
// (BWriteOwned where Write copies with BWriteDirect), and a whole page is
// lent from the user-level cache (BReadView where Read copies with
// ReadBlockRange).
type refBlockFS struct{ blockFS }

func (fs *refBlockFS) WritePages(t *kernel.Task, ino fsapi.Ino, off int64, pages [][]byte, total int64) (int, error) {
	blk := int(ino)*blockFSFileBlocks + int(off/blockSize)
	for done := int64(0); done < total; done += blockSize {
		if _, err := fs.disk.BWriteOwned(t, blk, pages[done/blockSize]); err != nil {
			return int(done), err
		}
		blk++
	}
	return int(total), nil
}

func (fs *refBlockFS) CanLendPage(fsapi.Ino, int64) bool { return true }

func (fs *refBlockFS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	return fs.disk.(bentoks.BlockLender).BReadView(t, int(ino)*blockFSFileBlocks+int(pg))
}

// newBlockFSDriver mounts blockFS, or refBlockFS when byRef is set, with a
// user-level cache of cacheBlocks.
func newBlockFSDriver(tb testing.TB, cacheBlocks int, byRef bool) (*Driver, *kernel.Task) {
	tb.Helper()
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8 * blockFSFileBlocks, Model: model})
	task := kernel.New(model).NewTask("transport")
	factory := func() core.FileSystem { return &blockFS{} }
	if byRef {
		factory = func() core.FileSystem { return &refBlockFS{} }
	}
	fs, err := Type{Factory: factory, DiskCacheBlocks: cacheBlocks}.Mount(task, dev)
	if err != nil {
		tb.Fatal(err)
	}
	return fs.(*Driver), task
}

// The steady-state round trips the allocation contract and the
// microbenchmarks share. Each set-up mounts a fresh blockFS and returns
// the call to repeat and the payload bytes it moves.
type transportOp func(tb testing.TB) (op func() error, bytes int64)

func opGetAttr(tb testing.TB) (func() error, int64) {
	d, task := newBlockFSDriver(tb, 64, false)
	return func() error {
		_, err := d.GetAttr(task, 1)
		return err
	}, 0
}

// opRead4K reads the same page every time: a user-cache hit after the
// first call.
func opRead4K(tb testing.TB) (func() error, int64) {
	d, task := newBlockFSDriver(tb, 64, false)
	buf := make([]byte, fsapi.PageSize)
	return func() error { return d.ReadPage(task, 1, 0, buf) }, fsapi.PageSize
}

// opRead4KMiss cycles over four times the cache: every call misses,
// evicts the LRU block and is served from its recycled memory.
func opRead4KMiss(tb testing.TB) (func() error, int64) {
	const cache = 16
	d, task := newBlockFSDriver(tb, cache, false)
	buf := make([]byte, fsapi.PageSize)
	var pg int64
	return func() error {
		pg = (pg + 1) % (4 * cache)
		return d.ReadPage(task, 1, pg, buf)
	}, fsapi.PageSize
}

// opWrite128K is the gathered WRITE: blockFS is not a PageWriter.
var opWrite128K = writePages128K(false)

// writePages128K is one 128 KiB WRITE of the same 32 pages, which are
// never written after set-up (so handing them over again is within the
// write-back contract).
func writePages128K(byRef bool) transportOp {
	return func(tb testing.TB) (func() error, int64) {
		d, task := newBlockFSDriver(tb, 64, byRef)
		pages := make([][]byte, maxWritePages)
		for i := range pages {
			pages[i] = page(byte(i) + 1)
		}
		const size = maxWritePages * fsapi.PageSize
		return func() error { return d.WritePages(task, 2, 0, pages, size) }, size
	}
}

// opLend4K lends the same page every time: a user-cache hit on the
// device's own buffer after the first call.
func opLend4K(tb testing.TB) (func() error, int64) {
	d, task := newBlockFSDriver(tb, 64, true)
	if err := d.WritePage(task, 1, 0, page(0x4C), fsapi.PageSize); err != nil {
		tb.Fatal(err)
	}
	return func() error {
		view, err := d.LendPage(task, 1, 0)
		if err == nil && len(view) != fsapi.PageSize {
			tb.Fatalf("lent %d bytes", len(view))
		}
		return err
	}, fsapi.PageSize
}

// TestRoundTripSteadyStateAllocs is the transport's allocation contract:
// once the session's payload buffer has grown to the largest message and
// the user-level cache is full, a round trip allocates nothing — not the
// request and reply, not the daemon's READ buffer, not the WRITE gather,
// not the cache block of a miss — and neither does one that moves the
// pages by reference.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup transportOp
	}{
		{"GetAttr", opGetAttr},
		{"Read4K", opRead4K},
		{"Read4KMiss", opRead4KMiss},
		{"Write128K", opWrite128K},
		{"WritePages128K", writePages128K(true)},
		{"Lend4K", opLend4K},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, _ := tc.setup(t)
			run := func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 128; i++ { // grow the payload buffer, fill the cache
				run()
			}
			if got := testing.AllocsPerRun(200, run); got != 0 {
				t.Fatalf("%v allocs per round trip, want 0", got)
			}
		})
	}
}

func benchRoundTrip(b *testing.B, setup transportOp) {
	op, bytes := setup(b)
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripGetAttr(b *testing.B)   { benchRoundTrip(b, opGetAttr) }
func BenchmarkRoundTripRead4K(b *testing.B)    { benchRoundTrip(b, opRead4K) }
func BenchmarkRoundTripWrite128K(b *testing.B) { benchRoundTrip(b, opWrite128K) }

// The by-reference twins of Write128K and Read4K.
func BenchmarkRoundTripWritePages128K(b *testing.B) { benchRoundTrip(b, writePages128K(true)) }
func BenchmarkRoundTripLend4K(b *testing.B)         { benchRoundTrip(b, opLend4K) }

// BenchmarkUserDiskMiss is the user-level cache alone: BRead + Release
// cycling over four times the cache, so every call evicts and refills.
func BenchmarkUserDiskMiss(b *testing.B) {
	const cache = 64
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 4 * cache, Model: model})
	ud, task := NewUserDisk(dev, cache), kernel.New(model).NewTask("ud-bench")
	b.ReportAllocs()
	b.SetBytes(int64(ud.BlockSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := ud.BRead(task, i%(4*cache))
		if err != nil {
			b.Fatal(err)
		}
		if err := buf.Release(); err != nil {
			b.Fatal(err)
		}
	}
}
