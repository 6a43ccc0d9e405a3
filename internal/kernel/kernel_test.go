package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/memfs"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// newMount builds a kernel + memfs mount for syscall-layer tests.
func newMount(t *testing.T) (*kernel.Kernel, *kernel.Mount, *kernel.Task) {
	t.Helper()
	k := kernel.New(costmodel.Default())
	if err := k.Register(memfs.Type{}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
	m, err := k.Mount(task, "memfs", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, task
}

func TestRegisterDuplicate(t *testing.T) {
	k := kernel.New(costmodel.Default())
	if err := k.Register(memfs.Type{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Register(memfs.Type{}); !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("duplicate register err = %v, want ErrExist", err)
	}
}

func TestMountUnknownType(t *testing.T) {
	k := kernel.New(costmodel.Default())
	task := k.NewTask("t")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
	if _, err := k.Mount(task, "nope", "/mnt", dev); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestMountPointBusy(t *testing.T) {
	k, _, task := newMount(t)
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
	if _, err := k.Mount(task, "memfs", "/mnt", dev); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

func TestUnregisterInUse(t *testing.T) {
	k, _, _ := newMount(t)
	if err := k.Unregister("memfs"); !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

func TestUnmountThenRemount(t *testing.T) {
	k, _, task := newMount(t)
	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
	if _, err := k.Mount(task, "memfs", "/mnt", dev); err != nil {
		t.Fatalf("remount failed: %v", err)
	}
}

// TestUnmountRefusesOpenFiles: while a file on the mount is open, an
// unlinked one too, Unmount returns ErrBusy and keeps the mount: the
// mount point stays taken and the open file still writes. Once the last
// file is closed, Unmount succeeds.
func TestUnmountRefusesOpenFiles(t *testing.T) {
	k, m, task := newMount(t)
	var open []*kernel.File
	for _, name := range []string{"/a", "/b"} {
		f, err := m.Open(task, name, fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, f)
	}
	if err := m.Unlink(task, "/b"); err != nil {
		t.Fatal(err)
	}
	for _, f := range open {
		if err := k.Unmount(task, "/mnt"); !errors.Is(err, fsapi.ErrBusy) {
			t.Fatalf("Unmount with a file open = %v, want ErrBusy", err)
		}
		dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
		if _, err := k.Mount(task, "memfs", "/mnt", dev); !errors.Is(err, fsapi.ErrBusy) {
			t.Fatalf("Mount on the busy mount point = %v, want ErrBusy: the refused unmount freed it", err)
		}
		if _, err := f.Write(task, []byte("still mounted")); err != nil {
			t.Fatalf("write after a refused unmount: %v", err)
		}
		if err := m.Close(task, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatalf("Unmount with every file closed: %v", err)
	}
}

func TestCreateWriteReadBack(t *testing.T) {
	_, m, task := newMount(t)
	want := []byte("hello, bento")
	if err := m.WriteFile(task, "/hello.txt", want); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	_, m, task := newMount(t)
	if _, err := m.Open(task, "/missing", fsapi.ORdonly); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestOpenExclusiveOnExisting(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, err := m.Open(task, "/f", fsapi.OCreate|fsapi.OExcl|fsapi.OWronly)
	if !errors.Is(err, fsapi.ErrExist) {
		t.Fatalf("err = %v, want ErrExist", err)
	}
}

func TestOpenTruncDiscardsContents(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/f", fsapi.OWronly|fsapi.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("size after O_TRUNC = %d", f.Size())
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("contents survived O_TRUNC: %q", got)
	}
}

func TestWriteAcrossPageBoundaries(t *testing.T) {
	_, m, task := newMount(t)
	data := make([]byte, 3*fsapi.PageSize+123)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := m.WriteFile(task, "/big", data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-page content mismatch")
	}
}

func TestPWriteSparseThenRead(t *testing.T) {
	_, m, task := newMount(t)
	f, err := m.Open(task, "/sparse", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	if _, err := f.PWrite(task, []byte("end"), 2*fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2*fsapi.PageSize+3 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 4)
	n, err := f.PRead(task, buf, 10)
	if err != nil || n != 4 {
		t.Fatalf("read hole: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 0}) {
		t.Fatalf("hole not zero: %v", buf)
	}
}

func TestReadAtEOFReturnsZero(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	buf := make([]byte, 10)
	n, err := f.PRead(task, buf, 3)
	if n != 0 || err != nil {
		t.Fatalf("read at EOF: n=%d err=%v", n, err)
	}
	n, err = f.PRead(task, buf, 100)
	if n != 0 || err != nil {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
}

func TestSequentialReadAdvancesPos(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	buf := make([]byte, 3)
	if n, _ := f.Read(task, buf); n != 3 || string(buf) != "abc" {
		t.Fatalf("first read %q n=%d", buf, n)
	}
	if n, _ := f.Read(task, buf); n != 3 || string(buf) != "def" {
		t.Fatalf("second read %q n=%d", buf, n)
	}
	if n, _ := f.Read(task, buf); n != 0 {
		t.Fatalf("third read n=%d, want 0", n)
	}
}

func TestAppendFlag(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/log", []byte("one")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/log", fsapi.OWronly|fsapi.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(task, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile(task, "/log")
	if string(got) != "onetwo" {
		t.Fatalf("appended = %q", got)
	}
}

func TestSeekWhence(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Open(task, "/f", fsapi.ORdonly)
	defer m.Close(task, f)
	if p, _ := f.Seek(task, 4, 0); p != 4 {
		t.Fatalf("SEEK_SET -> %d", p)
	}
	if p, _ := f.Seek(task, 2, 1); p != 6 {
		t.Fatalf("SEEK_CUR -> %d", p)
	}
	if p, _ := f.Seek(task, -1, 2); p != 9 {
		t.Fatalf("SEEK_END -> %d", p)
	}
	if _, err := f.Seek(task, -100, 0); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("negative seek err = %v", err)
	}
	buf := make([]byte, 1)
	if n, _ := f.Read(task, buf); n != 1 || buf[0] != '9' {
		t.Fatalf("read after seek = %q", buf[:n])
	}
}

func TestMkdirResolveNested(t *testing.T) {
	_, m, task := newMount(t)
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := m.Mkdir(task, p); err != nil {
			t.Fatalf("mkdir %s: %v", p, err)
		}
	}
	if err := m.WriteFile(task, "/a/b/c/f.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/a/b/c/f.txt")
	if err != nil || string(got) != "deep" {
		t.Fatalf("got %q err %v", got, err)
	}
	st, err := m.Stat(task, "/a/b")
	if err != nil || st.Type != fsapi.TypeDir {
		t.Fatalf("stat dir: %+v %v", st, err)
	}
}

func TestPathThroughFileFails(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(task, "/f/child", fsapi.ORdonly); err == nil {
		t.Fatal("opening a path through a regular file succeeded")
	}
}

func TestReadDirListsEntries(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.Mkdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.WriteFile(task, fmt.Sprintf("/d/f%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := m.ReadDir(task, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("got %d entries: %+v", len(ents), ents)
	}
	if ents[0].Name != "f0" || ents[2].Name != "f2" {
		t.Fatalf("entries out of order: %+v", ents)
	}
}

func TestUnlinkRemovesAndInvalidatesDcache(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(task, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlink(task, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(task, "/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after unlink = %v", err)
	}
	// Re-creating under the same name must produce an empty file, not
	// resurrect cached pages.
	if err := m.WriteFile(task, "/f", nil); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/f")
	if err != nil || len(got) != 0 {
		t.Fatalf("recreated file has %q (err %v)", got, err)
	}
}

func TestUnlinkOpenFileKeepsData(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/f", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Unlink(task, "/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := f.PRead(task, buf, 0)
	if err != nil || string(buf[:n]) != "still here" {
		t.Fatalf("read after unlink: %q err %v", buf[:n], err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.Mkdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(task, "/d/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Rmdir(task, "/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if err := m.Unlink(task, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rmdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(task, "/d"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("stat after rmdir = %v", err)
	}
}

func TestRenameBasicAndReplace(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/a", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(task, "/a"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old name survives rename: %v", err)
	}
	got, _ := m.ReadFile(task, "/b")
	if string(got) != "A" {
		t.Fatalf("renamed contents = %q", got)
	}
	// Replacing rename.
	if err := m.WriteFile(task, "/c", []byte("C")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/c", "/b"); err != nil {
		t.Fatal(err)
	}
	got, _ = m.ReadFile(task, "/b")
	if string(got) != "C" {
		t.Fatalf("replace-rename contents = %q", got)
	}
}

func TestLinkSharesInode(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.WriteFile(task, "/orig", []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := m.Link(task, "/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	a, _ := m.Stat(task, "/orig")
	b, _ := m.Stat(task, "/alias")
	if a.Ino != b.Ino {
		t.Fatalf("link inodes differ: %d vs %d", a.Ino, b.Ino)
	}
	if b.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", b.Nlink)
	}
	if err := m.Unlink(task, "/orig"); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/alias")
	if err != nil || string(got) != "shared" {
		t.Fatalf("alias after unlink: %q %v", got, err)
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	_, m, task := newMount(t)
	f, err := m.Open(task, "/f", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	if _, err := f.Write(task, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(task, 4); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.Truncate(task, 8); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.PRead(task, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("after shrink+grow = %q", buf)
	}
}

func TestDoubleCloseRejected(t *testing.T) {
	_, m, task := newMount(t)
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, f); !errors.Is(err, fsapi.ErrBadFD) {
		t.Fatalf("double close = %v", err)
	}
}

func TestSyncReachesFS(t *testing.T) {
	_, m, task := newMount(t)
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	fs := m.FS().(*memfs.FS)
	if fs.SyncCount() != 1 {
		t.Fatalf("sync count = %d", fs.SyncCount())
	}
}

func TestVirtualTimeAdvancesOnSyscalls(t *testing.T) {
	k := kernel.New(costmodel.Default())
	if err := k.Register(memfs.Type{}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("timed")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
	m, err := k.Mount(task, "memfs", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	before := task.Clk.Now()
	if err := m.WriteFile(task, "/f", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if task.Clk.Now() <= before {
		t.Fatal("virtual clock did not advance across write syscalls")
	}
}

// TestConcurrentWritersDistinctFiles shares one mount between eight
// simulated threads the supported way — a vclock.Group admits one at a
// time, each yielding between system calls — and checks that no file
// picks up another's pages.
func TestConcurrentWritersDistinctFiles(t *testing.T) {
	k, m, _ := newMount(t)
	vclock.NewGroup(0).Run(8, func(i int, w *vclock.Worker) {
		task := k.NewTaskWithClock(fmt.Sprintf("w%d", i), w.Clock())
		data := bytes.Repeat([]byte{byte(i)}, 3*fsapi.PageSize)
		path := fmt.Sprintf("/f%d", i)
		f, err := m.Open(task, path, fsapi.ORdwr|fsapi.OCreate)
		if err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < len(data); off += fsapi.PageSize {
			w.Yield()
			if _, err := f.PWrite(task, data[off:off+fsapi.PageSize], int64(off)); err != nil {
				t.Error(err)
				return
			}
		}
		w.Yield()
		if err := m.Close(task, f); err != nil {
			t.Error(err)
			return
		}
		w.Yield()
		got, err := m.ReadFile(task, path)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Errorf("file %d corrupted", i)
		}
	})
}

func TestDirtyBudgetTriggersWriteback(t *testing.T) {
	_, m, task := newMount(t)
	m.SetDirtyLimit(8) // 8 pages
	f, err := m.Open(task, "/big", fsapi.OWronly|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	// Write 32 pages; the dirty budget forces write-back mid-stream, so the
	// FS must have received most of the data before any fsync.
	data := make([]byte, 32*fsapi.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.Write(task, data); err != nil {
		t.Fatal(err)
	}
	fs := m.FS().(*memfs.FS)
	st, err := fs.GetAttr(task, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	if st.Size < int64(24*fsapi.PageSize) {
		t.Fatalf("FS saw only %d bytes before fsync; write-back throttle did not run", st.Size)
	}
}

func TestStatReflectsDirtySize(t *testing.T) {
	_, m, task := newMount(t)
	f, err := m.Open(task, "/f", fsapi.OWronly|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	if _, err := f.Write(task, []byte("12345")); err != nil {
		t.Fatal(err)
	}
	st, err := m.Stat(task, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 5 {
		t.Fatalf("stat size = %d before writeback, want 5", st.Size)
	}
}

func TestBufferCacheBasics(t *testing.T) {
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	task := k.NewTask("bc")
	bc := kernel.NewBufferCache(dev, model, 8)

	b, err := bc.Get(task, 3)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Data(), []byte("metadata"))
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
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("double release = %v", err)
	}

	// A second Get must hit the cache.
	before := task.Rec().Counters()
	b2, err := bc.Get(task, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Release()
	if after := task.Rec().Counters(); after["buf_hits"] != before["buf_hits"]+1 {
		t.Fatalf("expected a cache hit: %v -> %v", before, after)
	}
	if string(b2.Data()[:8]) != "metadata" {
		t.Fatal("cache returned wrong contents")
	}
}

func TestBufferCacheEviction(t *testing.T) {
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	k := kernel.New(model)
	task := k.NewTask("bc")
	bc := kernel.NewBufferCache(dev, model, 4)
	for i := 0; i < 10; i++ {
		b, err := bc.Get(task, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if got := bc.ResidentBlocks(); !slices.Equal(got, []int{6, 7, 8, 9}) {
		t.Fatalf("resident blocks %v with cap 4 after 10 distinct blocks, want the last 4", got)
	}
}

func TestBufferCachePinnedNotEvicted(t *testing.T) {
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	k := kernel.New(model)
	task := k.NewTask("bc")
	bc := kernel.NewBufferCache(dev, model, 2)
	pinned, err := bc.Get(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(pinned.Data(), []byte("pinned"))
	for i := 1; i < 8; i++ {
		b, err := bc.Get(task, i)
		if err != nil {
			t.Fatal(err)
		}
		_ = b.Release()
	}
	// The pinned buffer must still be the same object with our bytes.
	again, err := bc.Get(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(again.Data()[:6]) != "pinned" {
		t.Fatal("pinned buffer was evicted and re-read")
	}
	_ = again.Release()
	_ = pinned.Release()
}
