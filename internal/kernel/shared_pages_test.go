package kernel_test

import (
	"bytes"
	"errors"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// blockFS is the smallest file system with a by-reference data path:
// memfs for the namespace, and page pg of inode ino stored as device block
// ino*blockFSPages+pg. ReadPage copies the block, LendPage borrows it, and
// WritePage adopts the page's buffer — before it fails, when told to, so
// a failed write-back has still given the buffer away.
type blockFS struct {
	kernel.FileSystem
	dev       *blockdev.Device
	failWrite bool
	adopted   [][]byte // every buffer WritePage handed to the device
}

const blockFSPages = 64

func (b *blockFS) block(ino fsapi.Ino, pg int64) int { return int(ino)*blockFSPages + int(pg) }

func (b *blockFS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	return b.dev.Read(t.Clk, b.block(ino, pg), buf)
}

func (b *blockFS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	view, err := b.dev.Borrow(t.Clk, b.block(ino, pg))
	if view == nil && err == nil {
		view = make([]byte, fsapi.PageSize)
	}
	return view, err
}

func (b *blockFS) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	b.adopted = append(b.adopted, buf)
	done, err := b.dev.SubmitOwned(t.Clk, b.block(ino, pg), buf)
	if err != nil {
		return err
	}
	t.Clk.AdvanceTo(done)
	if b.failWrite {
		return fsapi.ErrIO
	}
	return nil
}

// SetSize leaves the device alone: what a truncate does to a cached page
// must not reach the block before write-back does.
func (b *blockFS) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error { return nil }

type blockFSType struct{ fs **blockFS }

func (blockFSType) Name() string { return "blockfs" }

func (bt blockFSType) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	inner, err := memfs.Type{}.Mount(t, dev)
	if err != nil {
		return nil, err
	}
	*bt.fs = &blockFS{FileSystem: inner, dev: dev}
	return *bt.fs, nil
}

type blockRig struct {
	t    *testing.T
	m    *kernel.Mount
	fs   *blockFS
	task *kernel.Task
}

func newBlockRig(t *testing.T, iod bool) *blockRig {
	t.Helper()
	k := kernel.New(costmodel.Fast())
	r := &blockRig{t: t, task: k.NewTask("test")}
	if err := k.Register(blockFSType{fs: &r.fs}); err != nil {
		t.Fatal(err)
	}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64 * blockFSPages, Model: costmodel.Fast()})
	var err error
	if r.m, err = k.Mount(r.task, "blockfs", "/", dev); err != nil {
		t.Fatal(err)
	}
	if iod {
		r.m.EnableIODaemon(iodaemon.Config{})
	}
	return r
}

func (r *blockRig) open(path string) *kernel.File {
	r.t.Helper()
	f, err := r.m.Open(r.task, path, fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		r.t.Fatal(err)
	}
	return f
}

func (r *blockRig) pwrite(f *kernel.File, data []byte, off int64) {
	r.t.Helper()
	if _, err := f.PWrite(r.task, data, off); err != nil {
		r.t.Fatal(err)
	}
}

// onDevice requires block pg of f to read exactly want from the device.
func (r *blockRig) onDevice(f *kernel.File, pg int64, want []byte, when string) {
	r.t.Helper()
	got := make([]byte, fsapi.PageSize)
	if err := r.fs.dev.Read(r.task.Clk, r.fs.block(f.Ino(), pg), got); err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		r.t.Fatalf("%s: the device block of page %d changed without a write-back", when, pg)
	}
}

// inCache requires page pg of f to read exactly want through the page cache.
func (r *blockRig) inCache(f *kernel.File, pg int64, want []byte, when string) {
	r.t.Helper()
	got := make([]byte, fsapi.PageSize)
	if n, err := f.PRead(r.task, got, pg*fsapi.PageSize); err != nil || n != len(want) {
		r.t.Fatalf("%s: PRead of page %d = %d, %v", when, pg, n, err)
	}
	if !bytes.Equal(got[:len(want)], want) {
		r.t.Fatalf("%s: page %d reads back wrong through the cache", when, pg)
	}
}

func page(b byte) []byte { return bytes.Repeat([]byte{b}, fsapi.PageSize) }

// TestSharedPagesAreReplacedNotWritten: once a page's buffer is shared —
// lent by the file system on a fill, or given up to write-back — the page
// cache never writes it again. A full PWrite, a partial PWrite and a
// truncate that clears a tail each leave the device block exactly as the
// last write-back made it, while the cache shows the new contents; the
// same after a write-back that failed (the buffer was given up when it
// was passed, whatever came back); and a shared buffer never returns to
// the mount's free list, where another file's page would overwrite it.
// The read-ahead variant fills through the I/O daemon.
//
// Hand mutations this test kills: skipping the replacement on a partial
// PWrite, on a full PWrite (pageForOverwrite) or on truncate; marking
// pages shared only when write-back succeeds; putting a shared buffer on
// the free list.
func TestSharedPagesAreReplacedNotWritten(t *testing.T) {
	for _, iod := range []bool{false, true} {
		name := "demand"
		if iod {
			name = "readahead"
		}
		t.Run(name, func(t *testing.T) {
			r := newBlockRig(t, iod)
			const ps = fsapi.PageSize
			f := r.open("/f")
			const pages = 8
			for pg := int64(0); pg < pages; pg++ {
				r.pwrite(f, page(byte(0xA0+pg)), pg*ps)
			}
			if err := f.FSync(r.task); err != nil {
				t.Fatal(err)
			}
			// dur is what the device holds: the last write-back.
			dur := make([][]byte, pages)
			for pg := range dur {
				dur[pg] = page(byte(0xA0 + pg))
			}

			// mutate changes pages in the cache — page 0 by a full overwrite,
			// page 1 by a partial one, page 2 by a truncate that clears its
			// tail (the file is regrown at once, so it stays eight pages) —
			// and requires the device to show none of it; then it writes the
			// file back, after which the device shows all of it.
			mutate := func(kind string, fill byte) {
				r.pwrite(f, page(fill), 0)
				r.pwrite(f, []byte{fill, fill, fill}, ps+100)
				if err := f.Truncate(r.task, 2*ps+1000); err != nil {
					t.Fatal(err)
				}
				r.pwrite(f, []byte{fill}, pages*ps-1) // regrow
				next := make([][]byte, pages)
				for pg := range next {
					next[pg] = bytes.Clone(dur[pg])
				}
				next[0] = page(fill)
				copy(next[1][100:], []byte{fill, fill, fill})
				// The last page was beyond EOF when the regrow wrote into it;
				// the ones between come back from their old blocks, because
				// blockFS frees nothing on truncate.
				clear(next[pages-1])
				next[pages-1][ps-1] = fill
				for pg := int64(0); pg < pages; pg++ {
					want := next[pg]
					if pg == 2 {
						// Cleared in the cache only: zeroing the block is the
						// file system's half of a truncate, and blockFS skips it.
						want = bytes.Clone(want)
						clear(want[1000:])
					}
					r.inCache(f, pg, want, kind)
					r.onDevice(f, pg, dur[pg], kind)
				}
				if err := f.FSync(r.task); err != nil {
					t.Fatal(err)
				}
				dur = next
				for pg := int64(0); pg < pages; pg++ {
					r.onDevice(f, pg, dur[pg], kind+", written back")
				}
			}
			mutate("written-back pages", 0xB0)

			// A cold read is lent the device's blocks.
			r.m.DropCaches()
			for pg := int64(0); pg < pages; pg++ {
				r.inCache(f, pg, dur[pg], "lent fill")
			}
			mutate("lent pages", 0xB1)

			// A failed write-back: the buffers were adopted all the same.
			g := r.open("/g")
			r.pwrite(g, page(0xC1), 0)
			r.fs.failWrite = true
			if err := g.FSync(r.task); !errors.Is(err, fsapi.ErrIO) {
				t.Fatalf("FSync = %v, want the injected ErrIO", err)
			}
			r.fs.failWrite = false
			r.pwrite(g, []byte("after the failure"), 10)
			r.onDevice(g, 0, page(0xC1), "failed write-back")
			want := page(0xC1)
			copy(want[10:], "after the failure")
			r.inCache(g, 0, want, "failed write-back")
			if err := g.FSync(r.task); err != nil {
				t.Fatal(err)
			}
			r.onDevice(g, 0, want, "retried write-back")

			// Everything the device holds was adopted from the page cache or
			// is lent to it; free all of it and let another file take pages.
			if err := f.FSync(r.task); err != nil {
				t.Fatal(err)
			}
			snapshot := make([][]byte, pages)
			for pg := range snapshot {
				snapshot[pg] = make([]byte, ps)
				if err := r.fs.dev.Read(r.task.Clk, r.fs.block(f.Ino(), int64(pg)), snapshot[pg]); err != nil {
					t.Fatal(err)
				}
			}
			r.m.DropCaches()
			_, _, _, free := r.m.PagePool()
			for _, fb := range free {
				for _, ab := range r.fs.adopted {
					if &fb[0] == &ab[0] {
						t.Fatal("a buffer given up to write-back is on the mount's free list")
					}
				}
			}
			h := r.open("/h")
			for pg := int64(0); pg < 2*pages; pg++ {
				r.pwrite(h, page(0xEE), pg*ps)
			}
			for pg := int64(0); pg < pages; pg++ {
				r.onDevice(f, pg, snapshot[pg], "another file's pages")
			}
		})
	}
}

// TestPagePoolAccounting is the page-leak test for a pool whose structs
// and buffers part ways: after files have been written, written back,
// lent, overwritten, truncated and removed, every page struct the arenas
// supplied is back on the free list, and every buffer is either there or
// was given away — shared buffers are the only ones the mount stops
// owning, and none of them is on the list.
func TestPagePoolAccounting(t *testing.T) {
	r := newBlockRig(t, false)
	const ps = fsapi.PageSize
	const pages = 40
	f := r.open("/f")
	for pg := int64(0); pg < pages; pg++ {
		r.pwrite(f, page(byte(pg)), pg*ps)
	}
	if err := f.FSync(r.task); err != nil { // 40 buffers given up
		t.Fatal(err)
	}
	r.pwrite(f, page(0xFF), 0)        // replaced: one fresh private buffer
	r.pwrite(f, []byte("x"), 5*ps+10) // replaced with a copy: another
	r.m.DropCaches()                  // the 38 clean pages go; their buffers are not the mount's
	r.inCache(f, 7, page(7), "lent")  // a lent page: no buffer of the mount's
	g := r.open("/g")
	for pg := int64(0); pg < 10; pg++ {
		r.pwrite(g, page(0x77), pg*ps) // never written back: private
	}
	if err := r.m.Close(r.task, g); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Unlink(r.task, "/g"); err != nil { // 10 private buffers come back
		t.Fatal(err)
	}
	if err := f.Truncate(r.task, 0); err != nil { // 2 dirty private + 1 lent
		t.Fatal(err)
	}
	structs, freeStructs, bufs, free := r.m.PagePool()
	if freeStructs != structs {
		t.Errorf("%d of %d page structs are back on the free list with the cache empty", freeStructs, structs)
	}
	const givenUp = pages
	if len(free) != bufs-givenUp {
		t.Errorf("%d page buffers allocated, %d given up to write-back, %d on the free list, want %d", bufs, givenUp, len(free), bufs-givenUp)
	}
	seen := make(map[*byte]bool)
	for _, fb := range free {
		if len(fb) != ps || cap(fb) != ps {
			t.Fatalf("a free page buffer has len/cap %d/%d", len(fb), cap(fb))
		}
		if seen[&fb[0]] {
			t.Fatal("a page buffer is on the free list twice")
		}
		seen[&fb[0]] = true
	}
	for _, ab := range r.fs.adopted {
		if seen[&ab[0]] {
			t.Fatal("a buffer given up to write-back is on the free list")
		}
	}
}
