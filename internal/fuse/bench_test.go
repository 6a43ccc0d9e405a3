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

// newBlockFSDriver mounts blockFS with a user-level cache of cacheBlocks.
func newBlockFSDriver(tb testing.TB, cacheBlocks int) (*Driver, *kernel.Task) {
	tb.Helper()
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8 * blockFSFileBlocks, Model: model})
	task := kernel.New(model).NewTask("transport")
	fs, err := Type{Factory: func() core.FileSystem { return &blockFS{} }, DiskCacheBlocks: cacheBlocks}.Mount(task, dev)
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
	d, task := newBlockFSDriver(tb, 64)
	return func() error {
		_, err := d.GetAttr(task, 1)
		return err
	}, 0
}

// opRead4K reads the same page every time: a user-cache hit after the
// first call.
func opRead4K(tb testing.TB) (func() error, int64) {
	d, task := newBlockFSDriver(tb, 64)
	buf := make([]byte, fsapi.PageSize)
	return func() error { return d.ReadPage(task, 1, 0, buf) }, fsapi.PageSize
}

// opRead4KMiss cycles over four times the cache: every call misses,
// evicts the LRU block and is served from its recycled memory.
func opRead4KMiss(tb testing.TB) (func() error, int64) {
	const cache = 16
	d, task := newBlockFSDriver(tb, cache)
	buf := make([]byte, fsapi.PageSize)
	var pg int64
	return func() error {
		pg = (pg + 1) % (4 * cache)
		return d.ReadPage(task, 1, pg, buf)
	}, fsapi.PageSize
}

func opWrite128K(tb testing.TB) (func() error, int64) {
	d, task := newBlockFSDriver(tb, 64)
	pages := make([][]byte, maxWritePages)
	for i := range pages {
		pages[i] = page(byte(i) + 1)
	}
	const size = maxWritePages * fsapi.PageSize
	return func() error { return d.WritePages(task, 2, 0, pages, size) }, size
}

// TestRoundTripSteadyStateAllocs is the transport's allocation contract:
// once the session's payload buffer has grown to the largest message and
// the user-level cache is full, a round trip allocates nothing — not the
// request and reply, not the daemon's READ buffer, not the WRITE gather,
// not the cache block of a miss.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup transportOp
	}{
		{"GetAttr", opGetAttr},
		{"Read4K", opRead4K},
		{"Read4KMiss", opRead4KMiss},
		{"Write128K", opWrite128K},
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
