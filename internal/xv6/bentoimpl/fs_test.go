package bentoimpl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// env bundles a mounted xv6-Bento file system for tests.
type env struct {
	k    *kernel.Kernel
	m    *kernel.Mount
	task *kernel.Task
	dev  *blockdev.Device
}

func newEnv(t *testing.T, blocks int, policy bentoimpl.SyncPolicy) *env {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	dev := blockdev.MustNew(blockdev.Config{Blocks: blocks, Model: model})
	clk := vclock.NewClock()
	if _, err := layout.Mkfs(clk, dev, 512); err != nil {
		t.Fatal(err)
	}
	if err := bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{Policy: policy}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	m, err := k.Mount(task, "xv6", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return &env{k: k, m: m, task: task, dev: dev}
}

// fsck unmount-free: sync then check the device.
func (e *env) fsck(t *testing.T) *layout.FsckReport {
	t.Helper()
	if err := e.m.Sync(e.task); err != nil {
		t.Fatal(err)
	}
	rep, err := layout.Fsck(e.task.Clk, e.dev)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestMountFreshFS(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	ents, err := e.m.ReadDir(e.task, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("fresh root has entries: %v", ents)
	}
	st, err := e.m.Stat(e.task, "/")
	if err != nil || st.Type != fsapi.TypeDir {
		t.Fatalf("root stat: %+v err %v", st, err)
	}
}

func TestCreateWriteReadFsck(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	want := []byte("xv6 on bento, in a simulated kernel")
	if err := e.m.WriteFile(e.task, "/hello", want); err != nil {
		t.Fatal(err)
	}
	got, err := e.m.ReadFile(e.task, "/hello")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %q err %v", got, err)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

func TestLargeFileThroughIndirects(t *testing.T) {
	// Span direct (12 blocks), indirect, and into double-indirect:
	// > (12+1024) blocks of 4K = >4MB. Use ~4.5MB.
	e := newEnv(t, 8192, bentoimpl.PolicyWriteBack)
	size := (layout.NDirect + layout.NIndirect + 64) * layout.BlockSize
	data := make([]byte, size)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(data)
	if err := e.m.WriteFile(e.task, "/big", data); err != nil {
		t.Fatal(err)
	}
	got, err := e.m.ReadFile(e.task, "/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("double-indirect file corrupted")
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
	// Deleting it must return every block.
	free0, _ := e.m.StatFS(e.task)
	if err := e.m.Unlink(e.task, "/big"); err != nil {
		t.Fatal(err)
	}
	free1, _ := e.m.StatFS(e.task)
	if free1.FreeBlocks <= free0.FreeBlocks {
		t.Fatalf("unlink freed nothing: %d -> %d", free0.FreeBlocks, free1.FreeBlocks)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck after delete: %v", rep.Errors)
	}
}

func TestSparseFileHoles(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	f, err := e.m.Open(e.task, "/sparse", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer e.m.Close(e.task, f)
	// Write one byte far into the indirect range.
	off := int64((layout.NDirect + 100) * layout.BlockSize)
	if _, err := f.PWrite(e.task, []byte{0xEE}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(e.task); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := f.PRead(e.task, buf, off-1); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0xEE {
		t.Fatalf("hole boundary = %v", buf)
	}
	st, _ := f.FStat(e.task)
	if st.Size != off+1 {
		t.Fatalf("size = %d, want %d", st.Size, off+1)
	}
}

func TestDirectoryTreeAndFsck(t *testing.T) {
	e := newEnv(t, 8192, bentoimpl.PolicyWriteBack)
	for i := 0; i < 3; i++ {
		dir := fmt.Sprintf("/d%d", i)
		if err := e.m.Mkdir(e.task, dir); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			sub := fmt.Sprintf("%s/s%d", dir, j)
			if err := e.m.Mkdir(e.task, sub); err != nil {
				t.Fatal(err)
			}
			if err := e.m.WriteFile(e.task, sub+"/f", []byte(sub)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := e.m.ReadFile(e.task, "/d1/s2/f")
	if err != nil || string(got) != "/d1/s2" {
		t.Fatalf("nested read: %q %v", got, err)
	}
	ents, err := e.m.ReadDir(e.task, "/d2")
	if err != nil || len(ents) != 4 {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	rep := e.fsck(t)
	if !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
	if rep.Dirs != 1+3+12 {
		t.Fatalf("dir census = %d", rep.Dirs)
	}
}

func TestUnlinkRmdirErrors(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	if err := e.m.Mkdir(e.task, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := e.m.WriteFile(e.task, "/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Unlink(e.task, "/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Fatalf("unlink dir = %v", err)
	}
	if err := e.m.Rmdir(e.task, "/d/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Fatalf("rmdir file = %v", err)
	}
	if err := e.m.Rmdir(e.task, "/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	if err := e.m.Unlink(e.task, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Rmdir(e.task, "/d"); err != nil {
		t.Fatal(err)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

func TestRenameAcrossDirectories(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	if err := e.m.Mkdir(e.task, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Mkdir(e.task, "/b"); err != nil {
		t.Fatal(err)
	}
	if err := e.m.WriteFile(e.task, "/a/f", []byte("moved")); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Rename(e.task, "/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	got, err := e.m.ReadFile(e.task, "/b/g")
	if err != nil || string(got) != "moved" {
		t.Fatalf("after rename: %q %v", got, err)
	}
	if _, err := e.m.Stat(e.task, "/a/f"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("old name: %v", err)
	}
	// Move a directory across parents: ".." must be rewritten and nlinks
	// fixed — fsck verifies all of it.
	if err := e.m.Mkdir(e.task, "/a/sub"); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Rename(e.task, "/a/sub", "/b/sub"); err != nil {
		t.Fatal(err)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck after dir rename: %v", rep.Errors)
	}
	st, err := e.m.Stat(e.task, "/b/sub/..")
	if err != nil {
		t.Fatal(err)
	}
	bst, _ := e.m.Stat(e.task, "/b")
	if st.Ino != bst.Ino {
		t.Fatalf(".. points at %d, want %d", st.Ino, bst.Ino)
	}
}

func TestHardLinks(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	if err := e.m.WriteFile(e.task, "/orig", []byte("linked")); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Link(e.task, "/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	st, _ := e.m.Stat(e.task, "/alias")
	if st.Nlink != 2 {
		t.Fatalf("nlink = %d", st.Nlink)
	}
	if err := e.m.Unlink(e.task, "/orig"); err != nil {
		t.Fatal(err)
	}
	got, err := e.m.ReadFile(e.task, "/alias")
	if err != nil || string(got) != "linked" {
		t.Fatalf("alias: %q %v", got, err)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

func TestUnlinkOpenFileDeferredFree(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	if err := e.m.WriteFile(e.task, "/f", bytes.Repeat([]byte("z"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	// Force write-back so the file really owns disk blocks before the
	// unlink; otherwise the dirty pages are simply discarded.
	if err := e.m.Sync(e.task); err != nil {
		t.Fatal(err)
	}
	f, err := e.m.Open(e.task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := e.m.StatFS(e.task)
	if err := e.m.Unlink(e.task, "/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.PRead(e.task, buf, 0); err != nil {
		t.Fatalf("read after unlink: %v", err)
	}
	if err := e.m.Close(e.task, f); err != nil {
		t.Fatal(err)
	}
	after, _ := e.m.StatFS(e.task)
	if after.FreeBlocks <= before.FreeBlocks {
		t.Fatalf("blocks not freed on last close: %d -> %d", before.FreeBlocks, after.FreeBlocks)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

func TestTruncatePartialAndFull(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16KB, 4 blocks
	if err := e.m.WriteFile(e.task, "/t", data); err != nil {
		t.Fatal(err)
	}
	f, err := e.m.Open(e.task, "/t", fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(e.task, 5000); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(e.task); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5000)
	n, err := f.PRead(e.task, buf, 0)
	if err != nil || n != 5000 {
		t.Fatalf("read after truncate: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, data[:5000]) {
		t.Fatal("truncate corrupted head")
	}
	// Re-extend: tail must read zero, not stale bytes.
	if err := f.Truncate(e.task, 9000); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 100)
	if _, err := f.PRead(e.task, tail, 5100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, make([]byte, 100)) {
		t.Fatal("stale bytes after re-extend")
	}
	if err := e.m.Close(e.task, f); err != nil {
		t.Fatal(err)
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
}

func TestManyFilesCreateDelete(t *testing.T) {
	e := newEnv(t, 16384, bentoimpl.PolicyWriteBack)
	const n = 200
	for i := 0; i < n; i++ {
		if err := e.m.WriteFile(e.task, fmt.Sprintf("/f%03d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	ents, err := e.m.ReadDir(e.task, "/")
	if err != nil || len(ents) != n {
		t.Fatalf("readdir: %d entries, err %v", len(ents), err)
	}
	for i := 0; i < n; i += 2 {
		if err := e.m.Unlink(e.task, fmt.Sprintf("/f%03d", i)); err != nil {
			t.Fatalf("unlink %d: %v", i, err)
		}
	}
	rep := e.fsck(t)
	if !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
	if rep.Files != n/2 {
		t.Fatalf("files = %d, want %d", rep.Files, n/2)
	}
}

// TestConcurrentWorkloadFsck runs eight workers on one mount the way
// every benchmark cell does: under a vclock group, one worker on the
// host at a time, yielding between operations. Free-running goroutines
// on a shared mount are outside the determinism contract (and this test
// used to fail one run in eight that way; see ROADMAP, "Sequential by
// contract").
func TestConcurrentWorkloadFsck(t *testing.T) {
	e := newEnv(t, 16384, bentoimpl.PolicyWriteBack)
	const workers, files = 8, 20
	payload := func(w, i int) []byte { return bytes.Repeat([]byte{byte(w*16 + i)}, 6000) }
	run := func(w int, sw *vclock.Worker, task *kernel.Task) error {
		dir := fmt.Sprintf("/w%d", w)
		if err := e.m.Mkdir(task, dir); err != nil {
			return err
		}
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("%s/f%d", dir, i)
			sw.Yield()
			if err := e.m.WriteFile(task, p, payload(w, i)); err != nil {
				return fmt.Errorf("w%d write %d: %w", w, i, err)
			}
			if i%3 == 0 {
				sw.Yield()
				if err := e.m.Unlink(task, p); err != nil {
					return fmt.Errorf("w%d unlink %d: %w", w, i, err)
				}
			}
		}
		for i := 0; i < files; i++ {
			if i%3 == 0 {
				continue
			}
			sw.Yield()
			got, err := e.m.ReadFile(task, fmt.Sprintf("%s/f%d", dir, i))
			if err != nil {
				return fmt.Errorf("w%d read %d: %w", w, i, err)
			}
			if !bytes.Equal(got, payload(w, i)) {
				return fmt.Errorf("w%d file %d corrupted", w, i)
			}
		}
		return nil
	}
	errs := make([]error, workers)
	// Nothing retires these workers, so Yield always admits.
	vclock.NewGroup(e.task.Clk.Now()).Run(workers, func(w int, sw *vclock.Worker) {
		errs[w] = run(w, sw, e.k.NewTaskWithClock(fmt.Sprintf("w%d", w), sw.Clock()))
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck after concurrency: %v", rep.Errors)
	}
}

func TestOutOfSpace(t *testing.T) {
	e := newEnv(t, 512, bentoimpl.PolicyWriteBack) // tiny device
	e.m.SetDirtyLimit(4)                           // write back eagerly so ENOSPC hits the writer
	var err error
	i := 0
	for ; i < 10000 && err == nil; i++ {
		err = e.m.WriteFile(e.task, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte("x"), 64<<10))
	}
	if !errors.Is(err, fsapi.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Drop the partially-written victims (their dirty pages can never be
	// written back), then the file system must still be consistent.
	for j := i - 2; j < i; j++ {
		if j >= 0 {
			_ = e.m.Unlink(e.task, fmt.Sprintf("/f%d", j))
		}
	}
	if rep := e.fsck(t); !rep.OK() {
		t.Fatalf("fsck after ENOSPC: %v", rep.Errors)
	}
}

func TestRemountSeesData(t *testing.T) {
	e := newEnv(t, 4096, bentoimpl.PolicyWriteBack)
	if err := e.m.WriteFile(e.task, "/persist", []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if err := e.k.Unmount(e.task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	m2, err := e.k.Mount(e.task, "xv6", "/mnt2", e.dev)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.ReadFile(e.task, "/persist")
	if err != nil || string(got) != "still here" {
		t.Fatalf("remount read: %q %v", got, err)
	}
}

func TestCrashRecoveryCommittedTransactionSurvives(t *testing.T) {
	// Under PolicyFlush, a completed fsync means the data survives any
	// crash; the log recovery path reinstalls it if the install was lost.
	for seed := int64(1); seed <= 5; seed++ {
		e := newEnv(t, 4096, bentoimpl.PolicyFlush)
		f, err := e.m.Open(e.task, "/crash", fsapi.ORdwr|fsapi.OCreate)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0xAB}, 2*layout.BlockSize)
		if _, err := f.Write(e.task, payload); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(e.task); err != nil {
			t.Fatal(err)
		}
		// Crash with arbitrary retention of unflushed writes.
		e.dev.Crash(0.5, seed)

		// Remount on a fresh kernel (cold caches) and verify.
		k2 := kernel.New(costmodel.Fast())
		if err := bentoimpl.RegisterWith(k2, "xv6", bentoimpl.Config{Policy: bentoimpl.PolicyFlush}); err != nil {
			t.Fatal(err)
		}
		task2 := k2.NewTask("recover")
		m2, err := k2.Mount(task2, "xv6", "/mnt", e.dev)
		if err != nil {
			t.Fatalf("seed %d: remount: %v", seed, err)
		}
		got, err := m2.ReadFile(task2, "/crash")
		if err != nil {
			t.Fatalf("seed %d: fsynced file lost: %v", seed, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("seed %d: fsynced contents corrupted", seed)
		}
		rep, err := layout.Fsck(task2.Clk, e.dev)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d: fsck after recovery: %v", seed, rep.Errors)
		}
	}
}

func TestCrashMidWorkloadAlwaysConsistent(t *testing.T) {
	// Whatever the crash point, recovery must yield a *consistent* file
	// system (data since the last commit may be lost, never corrupted).
	for seed := int64(10); seed < 18; seed++ {
		e := newEnv(t, 8192, bentoimpl.PolicyFlush)
		// Unsynced workload: a mix of creates, writes, deletes.
		for i := 0; i < 12; i++ {
			p := fmt.Sprintf("/w%d", i)
			_ = e.m.WriteFile(e.task, p, bytes.Repeat([]byte{byte(i)}, 5000))
			if i%4 == 3 {
				_ = e.m.Unlink(e.task, fmt.Sprintf("/w%d", i-1))
			}
		}
		e.dev.Crash(float64(seed%3)/2, seed) // keep 0%, 50%, or 100%

		k2 := kernel.New(costmodel.Fast())
		if err := bentoimpl.RegisterWith(k2, "xv6", bentoimpl.Config{Policy: bentoimpl.PolicyFlush}); err != nil {
			t.Fatal(err)
		}
		task2 := k2.NewTask("recover")
		if _, err := k2.Mount(task2, "xv6", "/mnt", e.dev); err != nil {
			t.Fatalf("seed %d: remount: %v", seed, err)
		}
		rep, err := layout.Fsck(task2.Clk, e.dev)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d: inconsistent after crash recovery: %v", seed, rep.Errors)
		}
	}
}

func TestGroupCommitAbsorption(t *testing.T) {
	e := newEnv(t, 8192, bentoimpl.PolicyWriteBack)
	b := e.m.FS().(*core.BentoFS)
	fs := b.Inner().(*bentoimpl.FS)
	// Many small writes to one file: absorption should keep commits low.
	f, err := e.m.Open(e.task, "/a", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.PWrite(e.task, []byte("x"), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FSync(e.task); err != nil {
		t.Fatal(err)
	}
	if err := e.m.Close(e.task, f); err != nil {
		t.Fatal(err)
	}
	if c := fs.Log().Commits(); c > 8 {
		t.Fatalf("64 one-byte writes caused %d commits; page cache + log should batch", c)
	}
}
