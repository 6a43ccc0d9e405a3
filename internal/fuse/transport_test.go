package fuse

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/netstore"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// newXv6Driver mounts the xv6 file system behind a raw Driver — no VFS,
// no page cache — so a test sees exactly what crosses the transport.
func newXv6Driver(t *testing.T) (*Driver, *kernel.Task) {
	t.Helper()
	model := costmodel.Fast()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
		t.Fatal(err)
	}
	task := kernel.New(model).NewTask("transport")
	fs, err := Type{Factory: func() core.FileSystem {
		return bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyFlush})
	}}.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs.(*Driver), task
}

func mustCreate(t *testing.T, d *Driver, task *kernel.Task, dir fsapi.Ino, name string) fsapi.Ino {
	t.Helper()
	st, err := d.Create(task, dir, name)
	if err != nil {
		t.Fatalf("create %q: %v", name, err)
	}
	return st.Ino
}

// page returns a page-cache page holding b repeated.
func page(b byte) []byte { return bytes.Repeat([]byte{b}, fsapi.PageSize) }

func TestMountValidation(t *testing.T) {
	model := costmodel.Fast()
	factory := func() core.FileSystem { return bentoimpl.New(bentoimpl.Config{}) }
	for _, tc := range []struct {
		name string
		tt   Type
		want string // substring of the error; "" means the mount succeeds
	}{
		{"nil factory", Type{}, "nil Factory"},
		{"nil factory, named", Type{TypeName: "xv6fuse"}, `"xv6fuse"`},
		{"negative cache", Type{Factory: factory, DiskCacheBlocks: -1}, "negative DiskCacheBlocks -1"},
		{"default cache", Type{Factory: factory}, ""},
		{"sized cache", Type{Factory: factory, DiskCacheBlocks: 64}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
			if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
				t.Fatal(err)
			}
			_, err := tc.tt.Mount(kernel.New(model).NewTask("mount"), dev)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), "fuse: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Mount = %v, want a fuse: error mentioning %s", err, tc.want)
			}
			if !errors.Is(err, fsapi.ErrInvalid) {
				t.Fatalf("Mount = %v, want ErrInvalid", err)
			}
		})
	}
}

// TestWriteNeverCarriesAnEarlierRequest is rule 3 end to end: after a
// READ has filled the payload buffer with 0xAA, smaller WRITEs to another
// file hand the daemon only their own bytes — or zeros where their pages
// run out before total and the WRITE is flattened into that buffer.
func TestWriteNeverCarriesAnEarlierRequest(t *testing.T) {
	d, task := newXv6Driver(t)
	big := mustCreate(t, d, task, fsapi.RootIno, "big")
	pages := make([][]byte, maxWritePages)
	for i := range pages {
		pages[i] = page(0xAA)
	}
	if err := d.WritePages(task, big, 0, pages, maxWritePages*fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(task, big, 0, page(0)); err != nil {
		t.Fatal(err)
	}

	// One byte of a full page: the READ reply is one byte too, and the
	// rest of the caller's page is zero-filled.
	one := mustCreate(t, d, task, fsapi.RootIno, "one")
	src := page(0xBB)
	src[0] = 0x5B
	if err := d.WritePages(task, one, 0, [][]byte{src}, 1); err != nil {
		t.Fatal(err)
	}
	got := page(0xFF)
	if err := d.ReadPage(task, one, 0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, fsapi.PageSize)
	want[0] = 0x5B
	if !bytes.Equal(got, want) {
		t.Fatalf("1-byte file reads back as %x..., want 5b then zeros", got[:8])
	}

	// A page shorter than total: the WRITE is still total bytes, the
	// missing ones zeros — not the 0xAA the buffer held.
	short := mustCreate(t, d, task, fsapi.RootIno, "short")
	if err := d.WritePages(task, short, 0, [][]byte{{0x5C}}, fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	got = page(0xFF)
	if err := d.ReadPage(task, short, 0, got); err != nil {
		t.Fatal(err)
	}
	want[0] = 0x5C
	if !bytes.Equal(got, want) {
		i := bytes.IndexFunc(got[1:], func(r rune) bool { return r != 0 }) + 1
		t.Fatalf("short-page WRITE stored %#x at byte %d, want 5c then zeros", got[i], i)
	}
}

// TestReadsLandInTheirOwnPages: a copied READ's payload is copied into
// the caller's page, never handed out as a view of the session's payload
// buffer — neither a second READ nor a later WRITE changes the first
// one's page.
func TestReadsLandInTheirOwnPages(t *testing.T) {
	d, task := newXv6Driver(t)
	a := mustCreate(t, d, task, fsapi.RootIno, "a")
	b := mustCreate(t, d, task, fsapi.RootIno, "b")
	if err := d.WritePage(task, a, 0, page(0xA1), fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(task, b, 0, page(0xB2), fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	pa, pb := make([]byte, fsapi.PageSize), make([]byte, fsapi.PageSize)
	for _, r := range []struct {
		ino fsapi.Ino
		buf []byte
	}{{a, pa}, {b, pb}} {
		out := d.sess.bytesOut
		if err := d.ReadPage(task, r.ino, 0, r.buf); err != nil {
			t.Fatal(err)
		}
		if got := d.sess.bytesOut - out; got != repHeaderSize+fsapi.PageSize {
			t.Fatalf("READ reply is %d bytes on the wire, want %d", got, repHeaderSize+fsapi.PageSize)
		}
	}
	if err := d.WritePage(task, b, 0, page(0xC3), fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, page(0xA1)) || !bytes.Equal(pb, page(0xB2)) {
		t.Fatalf("after both READs and a WRITE: page a = %x..., page b = %x...", pa[:4], pb[:4])
	}
}

// TestReadDirSurvivesLaterRoundTrips is rule 1 for READDIR and STATFS:
// a listing holds nothing of the session's payload buffer, so later
// round trips that overwrite it do not change the listing.
func TestReadDirSurvivesLaterRoundTrips(t *testing.T) {
	d, task := newXv6Driver(t)
	mkdir := func(name string, files ...string) fsapi.Ino {
		st, err := d.Mkdir(task, fsapi.RootIno, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			mustCreate(t, d, task, st.Ino, f)
		}
		return st.Ino
	}
	d1 := mkdir("d1", "alpha", "beta")
	d2 := mkdir("d2", "gamma", "delta")
	// Grow the payload buffer past any listing first, so the round trips
	// below reuse it rather than leave a listing that aliased it behind
	// in an abandoned allocation.
	f := mustCreate(t, d, task, fsapi.RootIno, "f")
	if err := d.WritePage(task, f, 0, page(0x99), fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(task, f, 0, make([]byte, fsapi.PageSize)); err != nil {
		t.Fatal(err)
	}
	names := func(ents []fsapi.DirEntry) []string {
		var out []string
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				out = append(out, e.Name)
			}
		}
		return out
	}

	first, err := d.ReadDir(task, d1)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(first); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("ReadDir(d1) = %v", got)
	}
	st, err := d.StatFS(task)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.ReadDir(task, d2)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(second); !reflect.DeepEqual(got, []string{"gamma", "delta"}) {
		t.Fatalf("ReadDir(d2) = %v", got)
	}
	if got := names(first); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("first listing changed under later round trips: %v", got)
	}
	if again, err := d.StatFS(task); err != nil || again != st || st.TotalBlocks == 0 {
		t.Fatalf("StatFS = %+v then %+v (%v)", st, again, err)
	}
}

// TestShortReadZeroFillsPage: a READ that returns fewer bytes than asked
// — the file ends inside the page, or before it — leaves no stale bytes
// in the tail of the caller's page.
func TestShortReadZeroFillsPage(t *testing.T) {
	d, task := newXv6Driver(t)
	f := mustCreate(t, d, task, fsapi.RootIno, "f")
	if err := d.WritePage(task, f, 0, page(0x77), 100); err != nil {
		t.Fatal(err)
	}
	got := page(0xFF)
	if err := d.ReadPage(task, f, 0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, fsapi.PageSize)
	copy(want, page(0x77)[:100])
	if !bytes.Equal(got, want) {
		t.Fatalf("page over EOF: byte 99 = %#x, byte 100 = %#x, last = %#x", got[99], got[100], got[len(got)-1])
	}
	got = page(0xFF)
	if err := d.ReadPage(task, f, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, fsapi.PageSize)) {
		t.Fatalf("page past EOF not zeroed: %x...", got[:4])
	}
}

// TestErrnoReplyCarriesNoPayload: the reply to a failed request is the
// header alone, even though the payload buffer still holds the page the
// previous reply carried; and a failed READ leaves the caller's page
// untouched.
func TestErrnoReplyCarriesNoPayload(t *testing.T) {
	d, task := newXv6Driver(t)
	f := mustCreate(t, d, task, fsapi.RootIno, "f")
	if err := d.WritePage(task, f, 0, page(0x11), fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	out := d.sess.bytesOut
	if err := d.ReadPage(task, f, 0, make([]byte, fsapi.PageSize)); err != nil {
		t.Fatal(err)
	}
	if got := d.sess.bytesOut - out; got != repHeaderSize+fsapi.PageSize {
		t.Fatalf("READ reply is %d bytes", got)
	}

	out = d.sess.bytesOut
	st, err := d.Lookup(task, fsapi.RootIno, "missing")
	if !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("Lookup(missing) = %v, want ErrNotExist", err)
	}
	if got := d.sess.bytesOut - out; got != repHeaderSize {
		t.Fatalf("errno reply is %d bytes on the wire, want the %d-byte header", got, repHeaderSize)
	}
	if st != (fsapi.Stat{}) {
		t.Fatalf("errno reply carries attributes: %+v", st)
	}

	out = d.sess.bytesOut
	keep := page(0xEE)
	if err := d.ReadPage(task, 9999, 0, keep); err == nil {
		t.Fatal("READ of a free inode succeeded")
	}
	if got := d.sess.bytesOut - out; got != repHeaderSize {
		t.Fatalf("failed READ replied with %d bytes, want the %d-byte header", got, repHeaderSize)
	}
	if !bytes.Equal(keep, page(0xEE)) {
		t.Fatal("a failed READ wrote to the caller's page")
	}
}

// partialFS fails every READ and GETATTR after producing part of an
// answer, as a file system hitting a device error mid-operation does.
type partialFS struct{ blockFS }

func (fs *partialFS) Read(_ *kernel.Task, _ fsapi.Ino, _ int64, buf []byte) (int, error) {
	return copy(buf, "partial"), fsapi.ErrIO
}

func (fs *partialFS) GetAttr(*kernel.Task, fsapi.Ino) (fsapi.Stat, error) {
	return fsapi.Stat{Ino: 7, Size: 7, Nlink: 7}, fsapi.ErrStale
}

// TestFailedRequestRepliesWithErrnoOnly: whatever the hosted file system
// produced before it failed stays in the daemon — the reply is the
// header with the errno, no attributes and no payload.
func TestFailedRequestRepliesWithErrnoOnly(t *testing.T) {
	model := costmodel.Fast()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	task := kernel.New(model).NewTask("transport")
	fs, err := Type{Factory: func() core.FileSystem { return &partialFS{} }}.Mount(task, dev)
	if err != nil {
		t.Fatal(err)
	}
	d := fs.(*Driver)

	out := d.sess.bytesOut
	keep := page(0xEE)
	if err := d.ReadPage(task, 1, 0, keep); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("ReadPage = %v, want ErrIO", err)
	}
	if got := d.sess.bytesOut - out; got != repHeaderSize {
		t.Fatalf("failed READ replied with %d bytes, want the %d-byte header", got, repHeaderSize)
	}
	if !bytes.Equal(keep, page(0xEE)) {
		t.Fatal("a failed READ wrote to the caller's page")
	}
	out = d.sess.bytesOut
	st, err := d.GetAttr(task, 1)
	if !errors.Is(err, fsapi.ErrStale) {
		t.Fatalf("GetAttr = %v, want ErrStale", err)
	}
	if got := d.sess.bytesOut - out; got != repHeaderSize || st != (fsapi.Stat{}) {
		t.Fatalf("failed GETATTR replied with %d bytes and %+v", got, st)
	}
}

// copyingFS hides core.PageWriter and core.PageLender from the file
// system it wraps, as the benchmark's traced decorator does: the daemon
// then gets every WRITE flattened into its payload buffer and answers
// every READ with a copy, and the driver lends no page.
type copyingFS struct{ core.FileSystem }

// TestPagesByReferenceMatchCopies is the FUSE crossing's lend/copy
// equivalence check. Two traced mounts of the benchmarked FUSE variant —
// bentoimpl under PolicyFlush over the userspace disk — run the same
// workload, one with WRITE requests carrying the kernel's pages into the
// journal by reference and READs lending the daemon's blocks to the page
// cache, the other behind copyingFS. Full and partial pages, a hole, a
// truncate, a write-back run longer than one request, an unlink and cold
// reads after a cache drop — over a user-level cache of 16 blocks, so
// adopted, cloned and lent blocks keep being evicted and refilled — must
// leave both with the same device bytes, clocks, counters (fuse_bytes_in
// and fuse_bytes_out among them) and trace events, on both storage
// backends.
func TestPagesByReferenceMatchCopies(t *testing.T) {
	const ps = fsapi.PageSize
	pattern := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%251+1) ^ salt
		}
		return b
	}
	type side struct {
		k    *kernel.Kernel
		m    *kernel.Mount
		task *kernel.Task
		dev  *blockdev.Device
	}
	mount := func(t *testing.T, backend string, hide bool) *side {
		model := costmodel.Default()
		k := kernel.New(model)
		k.SetRecorder(trace.New())
		cfg := blockdev.Config{Blocks: 4096, Model: model}
		if backend == "netstore" {
			cfg.Backend = netstore.New(netstore.Config{Name: "net0", BlockSize: 4096, Blocks: cfg.Blocks, Model: model})
		}
		dev := blockdev.MustNew(cfg)
		dev.SetRecorder(k.Recorder())
		if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
			t.Fatal(err)
		}
		if err := k.Register(Type{Factory: func() core.FileSystem {
			fs := bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyFlush})
			if hide {
				return copyingFS{fs}
			}
			return fs
		}, DiskCacheBlocks: 16}); err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("mount")
		m, err := k.Mount(task, "fuse", "/", dev)
		if err != nil {
			t.Fatal(err)
		}
		return &side{k: k, m: m, task: task, dev: dev}
	}
	workload := func(t *testing.T, s *side) []byte {
		must := func(_ int, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		f, err := s.m.Open(s.task, "/a", fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		must(f.PWrite(s.task, pattern(10*ps+100, 0), 0))
		must(0, f.FSync(s.task))
		must(f.PWrite(s.task, pattern(3000, 0x40), 2*ps+500))
		must(f.PWrite(s.task, pattern(5*ps, 0x80), 20*ps))
		must(0, f.FSync(s.task))
		s.m.DropCaches()
		if _, err := s.m.ReadFile(s.task, "/a"); err != nil {
			t.Fatal(err)
		}
		must(0, f.Truncate(s.task, 4*ps+10))
		must(f.PWrite(s.task, pattern(2*ps, 0xC0), 4*ps+10))
		must(0, s.m.Close(s.task, f))
		must(0, s.m.WriteFile(s.task, "/b", pattern(40*ps, 0x11)))
		must(0, s.m.Sync(s.task))
		// Whole pages over blocks the daemon has long evicted.
		f, err = s.m.Open(s.task, "/b", fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		must(f.PWrite(s.task, pattern(40*ps, 0x33), 0))
		must(0, s.m.Close(s.task, f))
		must(0, s.m.Sync(s.task))
		must(0, s.m.Unlink(s.task, "/b"))
		must(0, s.m.WriteFile(s.task, "/c", pattern(3*ps+7, 0x22)))
		must(0, s.m.Sync(s.task))
		s.m.DropCaches()
		got, err := s.m.ReadFile(s.task, "/a")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, backend := range []string{"local", "netstore"} {
		t.Run(backend, func(t *testing.T) {
			ref, cp := mount(t, backend, false), mount(t, backend, true)
			if got, want := workload(t, ref), workload(t, cp); !bytes.Equal(got, want) {
				t.Fatal("the file reads back differently by reference and by copy")
			}
			if a, b := ref.task.Clk.NowNS(), cp.task.Clk.NowNS(); a != b {
				t.Fatalf("clock %d by reference, %d by copy", a, b)
			}
			ca, cb := ref.k.Recorder().Counters(), cp.k.Recorder().Counters()
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("counters differ:\nby reference %v\nby copy      %v", ca, cb)
			}
			if ca["fuse_bytes_in"] == 0 || ca["fuse_bytes_out"] == 0 {
				t.Fatalf("no FUSE traffic counted: %v", ca)
			}
			if a, b := ref.k.Recorder().Events(), cp.k.Recorder().Events(); !reflect.DeepEqual(a, b) {
				t.Fatalf("trace events differ (%d by reference, %d by copy)", len(a), len(b))
			}
			if a, b := ref.dev.Stats(), cp.dev.Stats(); a != b {
				t.Fatalf("device counters differ: %+v vs %+v", a, b)
			}
			ba, bb := make([]byte, ps), make([]byte, ps)
			for blk := 0; blk < ref.dev.Blocks(); blk++ {
				if err := ref.dev.Read(ref.task.Clk, blk, ba); err != nil {
					t.Fatal(err)
				}
				if err := cp.dev.Read(cp.task.Clk, blk, bb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ba, bb) {
					t.Fatalf("device block %d differs", blk)
				}
			}
		})
	}
}

// TestWireSizes pins the bytes each round trip charges copies for and
// counts as fuse_bytes_in/out — the lengths a request and its reply have
// on /dev/fuse. The expected numbers are the lengths of the encoded
// messages the transport used to build, so the published FUSE cells
// still price exactly the same bytes — the page-vector WRITE the bytes
// gathered ones did, the lent READ the bytes a copied one does.
func TestWireSizes(t *testing.T) {
	d, task := newXv6Driver(t)
	root := fsapi.RootIno
	var f, big, dir fsapi.Ino
	pages := make([][]byte, maxWritePages)
	for i := range pages {
		pages[i] = page(byte(i))
	}
	stat := func(into *fsapi.Ino) func(fsapi.Stat, error) error {
		return func(st fsapi.Stat, err error) error {
			*into = st.Ino
			return err
		}
	}
	for _, s := range []struct {
		name    string
		do      func() error
		want    error // the errno sentinel the request fails with, or nil
		in, out int64
	}{
		{"LOOKUP miss", func() error { _, err := d.Lookup(task, root, "missing"); return err }, fsapi.ErrNotExist, 55, 36},
		{"CREATE", func() error { return stat(&f)(d.Create(task, root, "f")) }, nil, 49, 36},
		{"CREATE big", func() error { return stat(&big)(d.Create(task, root, "big")) }, nil, 51, 36},
		{"MKDIR", func() error { return stat(&dir)(d.Mkdir(task, root, "d")) }, nil, 49, 36},
		{"WRITE 1 B", func() error { return d.WritePages(task, f, 0, pages[:1], 1) }, nil, 49, 36},
		{"WRITE 128 KiB by reference", func() error { return d.WritePages(task, big, 0, pages, maxWritePages*fsapi.PageSize) }, nil, 131120, 36},
		{"WRITE short page, gathered", func() error { return d.WritePages(task, big, 40, [][]byte{{1}}, 41*fsapi.PageSize) }, nil, 4144, 36},
		{"OPEN", func() error { return d.Open(task, big) }, nil, 48, 36}, // a page is lent from an open file
		{"READ lent", func() error {
			view, err := d.LendPage(task, big, 3)
			if err == nil && !bytes.Equal(view, pages[3]) {
				t.Error("the lent page does not hold what was written")
			}
			return err
		}, nil, 48, 4132},
		{"READ copied", func() error { return d.ReadPage(task, big, 3, page(0)) }, nil, 48, 4132},
		{"READ short", func() error { return d.ReadPage(task, f, 0, page(0)) }, nil, 48, 37},
		{"READ past EOF", func() error { return d.ReadPage(task, f, 1, page(0)) }, nil, 48, 36},
		{"READDIR", func() error { _, err := d.ReadDir(task, root); return err }, nil, 48, 74},
		{"STATFS", func() error { _, err := d.StatFS(task); return err }, nil, 48, 68},
		{"RENAME", func() error { return d.Rename(task, root, "f", dir, "h") }, nil, 50, 36},
		{"RMDIR non-empty", func() error { return d.Rmdir(task, root, "d") }, fsapi.ErrNotEmpty, 49, 36},
		{"READ free inode", func() error { return d.ReadPage(task, 9999, 0, page(0)) }, fsapi.ErrStale, 48, 36},
	} {
		in, out := d.sess.bytesIn, d.sess.bytesOut
		// == on purpose: an error crosses the transport as its bare sentinel.
		if err := s.do(); err != s.want {
			t.Fatalf("%s: %v, want %v", s.name, err, s.want)
		}
		if gotIn, gotOut := d.sess.bytesIn-in, d.sess.bytesOut-out; gotIn != s.in || gotOut != s.out {
			t.Errorf("%s: %d bytes in, %d out; want %d in, %d out", s.name, gotIn, gotOut, s.in, s.out)
		}
	}
}
