package ext4_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

func newExt4(t *testing.T, blocks int) (*kernel.Kernel, *kernel.Mount, *kernel.Task, *blockdev.Device) {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	k.SetRecorder(trace.New()) // before any task: the commit counts
	dev := blockdev.MustNew(blockdev.Config{Blocks: blocks, Model: model})
	task := k.NewTask("mkfs")
	if err := ext4.Mkfs(task, dev, 1024); err != nil {
		t.Fatal(err)
	}
	if err := k.Register(ext4.Type{}); err != nil {
		t.Fatal(err)
	}
	m, err := k.Mount(task, "ext4", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, task, dev
}

func TestExt4Basics(t *testing.T) {
	_, m, task, _ := newExt4(t, 8192)
	want := bytes.Repeat([]byte("jbd2"), 5000)
	if err := m.WriteFile(task, "/f", want); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("round trip: %v", err)
	}
	if err := m.Mkdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(task, "/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old name: %v", err)
	}
	got, err = m.ReadFile(task, "/d/g")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after rename: %v", err)
	}
}

func TestExt4RemountSeesData(t *testing.T) {
	k, m, task, dev := newExt4(t, 8192)
	if err := m.WriteFile(task, "/persist", []byte("journal me")); err != nil {
		t.Fatal(err)
	}
	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	m2, err := k.Mount(task, "ext4", "/again", dev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.ReadFile(task, "/persist")
	if err != nil || string(got) != "journal me" {
		t.Fatalf("remount: %q %v", got, err)
	}
}

func TestExt4CommitsAreBatched(t *testing.T) {
	// Many metadata ops before any fsync must share few compound commits
	// — the defining difference from xv6's per-op group commit.
	k, m, task, _ := newExt4(t, 16384)
	before := k.Recorder().Counters()["journal_commits"]
	for i := 0; i < 100; i++ {
		if err := m.WriteFile(task, fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	if c := k.Recorder().Counters()["journal_commits"] - before; c < 1 || c > 10 {
		t.Fatalf("100 creates and a sync caused %d compound commits; want 1..10", c)
	}
	got, err := m.ReadFile(task, "/f42")
	if err != nil || string(got) != "x" {
		t.Fatalf("read back: %v", err)
	}
}

func TestExt4CrashAfterFsync(t *testing.T) {
	model := costmodel.Fast()
	k := kernel.New(model)
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	task := k.NewTask("t")
	if err := ext4.Mkfs(task, dev, 256); err != nil {
		t.Fatal(err)
	}
	if err := k.Register(ext4.Type{}); err != nil {
		t.Fatal(err)
	}
	m, err := k.Mount(task, "ext4", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/x", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 3*layout.BlockSize)
	if _, err := f.Write(task, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	dev.Crash(0.4, 123)

	k2 := kernel.New(model)
	if err := k2.Register(ext4.Type{}); err != nil {
		t.Fatal(err)
	}
	t2 := k2.NewTask("r")
	m2, err := k2.Mount(t2, "ext4", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.ReadFile(t2, "/x")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fsynced data lost after crash: %v", err)
	}
}

// TestExt4ConcurrentFsyncsShareCommit: eight scheduled threads each
// create a file, write it and fsync it. The running compound transaction
// carries every thread's handles, so the creates and the write-back
// metadata ride in whichever fsync's commit comes next: 24 journalled
// operations cost at most one commit per fsync, not one each as xv6's
// log would. (Two fsyncs never share one commit here: each fsync's own
// write-back joins fresh blocks, and a commit finishes inside the fsync
// that started it. The sharing the free-running version of this test
// could observe came from host threads blocking on each other, which
// the simulator does not model.)
func TestExt4ConcurrentFsyncsShareCommit(t *testing.T) {
	k, m, _, _ := newExt4(t, 16384)
	before := k.Recorder().Counters()["journal_commits"]
	vclock.NewGroup(0).Run(8, func(w int, sw *vclock.Worker) {
		task := k.NewTaskWithClock(fmt.Sprintf("w%d", w), sw.Clock())
		f, err := m.Open(task, fmt.Sprintf("/w%d", w), fsapi.OCreate|fsapi.OWronly)
		if err != nil {
			t.Error(err)
			return
		}
		sw.Yield()
		if _, err := f.Write(task, bytes.Repeat([]byte{byte(w)}, 8192)); err != nil {
			t.Error(err)
			return
		}
		sw.Yield()
		if err := f.FSync(task); err != nil {
			t.Error(err)
			return
		}
		sw.Yield()
		if err := m.Close(task, f); err != nil {
			t.Error(err)
		}
	})
	if c := k.Recorder().Counters()["journal_commits"] - before; c < 1 || c > 8 {
		t.Fatalf("8 creates, writes and fsyncs caused %d commits; want 1..8 (compound commits)", c)
	}
}

func TestExt4IsBatchWriter(t *testing.T) {
	_, m, _, _ := newExt4(t, 8192)
	if _, ok := m.FS().(kernel.BatchWriter); !ok {
		t.Fatal("ext4 must implement the batched writepages path")
	}
}

func TestExt4FasterThanXv6OnBatchedMetadata(t *testing.T) {
	// Table 6's shape in miniature: a create-heavy workload without
	// fsyncs should cost ext4 far less virtual time than xv6 (compound
	// commits vs per-op commits).
	model := costmodel.Default()

	run := func(mount func(k *kernel.Kernel, dev *blockdev.Device, task *kernel.Task) *kernel.Mount) int64 {
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 16384, Model: model})
		task := k.NewTask("bench")
		m := mount(k, dev, task)
		start := task.Clk.NowNS()
		for i := 0; i < 50; i++ {
			if err := m.WriteFile(task, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte("d"), 8192)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Sync(task); err != nil {
			t.Fatal(err)
		}
		return task.Clk.NowNS() - start
	}

	ext4Time := run(func(k *kernel.Kernel, dev *blockdev.Device, task *kernel.Task) *kernel.Mount {
		if err := ext4.Mkfs(task, dev, 1024); err != nil {
			t.Fatal(err)
		}
		if err := k.Register(ext4.Type{}); err != nil {
			t.Fatal(err)
		}
		m, err := k.Mount(task, "ext4", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	xv6Time := run(func(k *kernel.Kernel, dev *blockdev.Device, task *kernel.Task) *kernel.Mount {
		if _, err := layout.Mkfs(task.Clk, dev, 1024); err != nil {
			t.Fatal(err)
		}
		if err := bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{}); err != nil {
			t.Fatal(err)
		}
		m, err := k.Mount(task, "xv6", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	if ext4Time >= xv6Time {
		t.Fatalf("ext4 (%d ns) should beat xv6 (%d ns) on batched metadata", ext4Time, xv6Time)
	}
}

// TestExt4PartialTruncateUnmapsTail: truncating to a non-zero size frees
// the whole blocks past the new end and unmaps them. A file spanning
// direct and indirect blocks is cut to 5.5 blocks and regrown past its old
// end: the gap reads as zeros (not the freed blocks' old bytes), and a
// truncate to zero frees exactly what the file held (no double free), so
// the free-block count is back where it started. Both data paths: through
// the buffer cache and bypassing it.
func TestExt4PartialTruncateUnmapsTail(t *testing.T) {
	const bs = layout.BlockSize
	for _, bypass := range []bool{false, true} {
		model := costmodel.Fast()
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model})
		task := k.NewTask("trunc")
		if err := ext4.Mkfs(task, dev, 1024); err != nil {
			t.Fatal(err)
		}
		if err := k.Register(ext4.Type{Cfg: ext4.Config{DataBypass: bypass}}); err != nil {
			t.Fatal(err)
		}
		m, err := k.Mount(task, "ext4", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		free := func() int64 {
			t.Helper()
			if err := m.Sync(task); err != nil {
				t.Fatal(err)
			}
			st, err := m.StatFS(task)
			if err != nil {
				t.Fatal(err)
			}
			return st.FreeBlocks
		}
		start := free()

		const blocks = layout.NDirect + 8 // 12 direct, 8 behind the indirect block
		if _, err := f.PWrite(task, bytes.Repeat([]byte{0xAB}, blocks*bs), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(task); err != nil {
			t.Fatal(err)
		}
		cut := int64(5*bs + bs/2)
		if err := f.Truncate(task, cut); err != nil {
			t.Fatalf("bypass=%v: truncate to %d: %v", bypass, cut, err)
		}
		tail := bytes.Repeat([]byte{0xCD}, bs)
		regrow := int64((blocks + 2) * bs)
		if _, err := f.PWrite(task, tail, regrow); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(task); err != nil {
			t.Fatal(err)
		}
		m.DropCaches()
		got := make([]byte, regrow+bs)
		if n, err := f.PRead(task, got, 0); err != nil || n != len(got) {
			t.Fatalf("bypass=%v: read back %d bytes: %v", bypass, n, err)
		}
		if !bytes.Equal(got[:cut], bytes.Repeat([]byte{0xAB}, int(cut))) {
			t.Fatalf("bypass=%v: the kept 5.5 blocks changed", bypass)
		}
		if i := bytes.IndexFunc(got[cut:regrow], func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("bypass=%v: byte %d of the regrown gap reads %#x, want zeros", bypass, cut+int64(i), got[cut+int64(i)])
		}
		if !bytes.Equal(got[regrow:], tail) {
			t.Fatalf("bypass=%v: the regrown tail block lost its contents", bypass)
		}
		if err := f.Truncate(task, 0); err != nil {
			t.Fatalf("bypass=%v: truncate to 0: %v", bypass, err)
		}
		if end := free(); end != start {
			t.Fatalf("bypass=%v: %d free blocks after truncate to 0, started with %d", bypass, end, start)
		}
		if err := m.Close(task, f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExt4ImagePassesFsck: ext4 writes its superblock in the shared
// layout's record with its own magic and journal size, so layout.Fsck
// reads an ext4 image like an xv6 one. After a workload of creates,
// writes spanning indirect blocks, renames, unlinks and a truncate, the
// unmounted image is consistent.
func TestExt4ImagePassesFsck(t *testing.T) {
	k, m, task, dev := newExt4(t, 16384)
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/d%d", d)
		if err := m.Mkdir(task, dir); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			data := bytes.Repeat([]byte{byte(i)}, (i%5)*3000+1)
			if err := m.WriteFile(task, fmt.Sprintf("%s/f%d", dir, i), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	big := bytes.Repeat([]byte("ext4"), 20*layout.BlockSize) // past the direct blocks
	if err := m.WriteFile(task, "/d0/big", big); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(task, "/d0/big", fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(task, 5*layout.BlockSize+17); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/d1/f3", "/d2/moved"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 2 {
		if err := m.Unlink(task, fmt.Sprintf("/d1/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}

	sb, err := layout.ReadSuperblock(task.Clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Magic != layout.Ext4Magic || sb.NLog != ext4.JournalSize {
		t.Fatalf("superblock %+v: want ext4's magic and a %d-block journal", sb, ext4.JournalSize)
	}
	rep, err := layout.Fsck(task.Clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after workload: %v", rep.Errors)
	}
	// Root + 3 directories; 61 files created (one renamed across
	// directories), 10 unlinked.
	if rep.Dirs != 4 || rep.Files != 51 {
		t.Fatalf("census %+v, want 4 directories and 51 files", rep)
	}
}
