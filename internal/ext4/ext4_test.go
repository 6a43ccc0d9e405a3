package ext4_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/vclock"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

// The file system's own behaviour is tested once for every variant in
// bentoimpl's tables; these are the tests of what ext4 adds around it:
// writepages, the compound transaction and its geometry.

// ext4Configs are ext4's mounts with and without barriers, the bypass off.
var ext4Configs = []harness.MountConfig{{}, {Barriers: true}}

func TestExt4IsBatchWriter(t *testing.T) {
	r := journaltest.New(t, harness.VariantExt4, harness.Published(harness.VariantExt4))
	if _, ok := r.M.FS().(kernel.BatchWriter); !ok {
		t.Fatal("ext4 must implement the batched writepages path")
	}
}

func TestExt4Basics(t *testing.T) {
	r := journaltest.New(t, harness.VariantExt4, harness.Published(harness.VariantExt4))
	m, task := r.M, r.Task
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
	r := journaltest.New(t, harness.VariantExt4, harness.Published(harness.VariantExt4))
	if err := r.M.WriteFile(r.Task, "/persist", []byte("journal me")); err != nil {
		t.Fatal(err)
	}
	r.Unmount(t)
	m, task := r.Remount(t, r.Dev)
	got, err := m.ReadFile(task, "/persist")
	if err != nil || string(got) != "journal me" {
		t.Fatalf("remount: %q %v", got, err)
	}
}

// TestExt4CrashAfterFsync: with barriers, a returned fsync survives a
// power cut that drops part of the device's volatile write cache.
func TestExt4CrashAfterFsync(t *testing.T) {
	r := journaltest.New(t, harness.VariantExt4, harness.MountConfig{Barriers: true})
	f, err := r.M.Open(r.Task, "/x", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 3*layout.BlockSize)
	if _, err := f.Write(r.Task, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(r.Task); err != nil {
		t.Fatal(err)
	}
	r.Dev.Crash(0.4, 123)
	m, task := r.Remount(t, r.Dev)
	got, err := m.ReadFile(task, "/x")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fsynced data lost after crash: %v", err)
	}
}

// TestExt4CommitsAreBatched: many metadata ops before any fsync must
// share few compound commits — the defining difference from xv6's
// per-op group commit.
func TestExt4CommitsAreBatched(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantExt4}, ext4Configs, func(t *testing.T, v string, mc harness.MountConfig) {
		r := journaltest.New(t, v, mc)
		for i := 0; i < 100; i++ {
			if err := r.M.WriteFile(r.Task, fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.M.Sync(r.Task); err != nil {
			t.Fatal(err)
		}
		if c := len(r.Commits(1)); c < 1 || c > 10 {
			t.Fatalf("100 creates and a sync caused %d compound commits; want 1..10", c)
		}
		got, err := r.M.ReadFile(r.Task, "/f42")
		if err != nil || string(got) != "x" {
			t.Fatalf("read back: %v", err)
		}
	})
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
	journaltest.Each(t, []string{harness.VariantExt4}, ext4Configs, func(t *testing.T, v string, mc harness.MountConfig) {
		r := journaltest.New(t, v, mc)
		m := r.M
		vclock.NewGroup(r.Task.Clk.Now()).Run(8, func(w int, sw *vclock.Worker) {
			task := r.K.NewTaskWithClock(fmt.Sprintf("w%d", w), sw.Clock())
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
		if c := len(r.Commits(1)); c < 1 || c > 8 {
			t.Fatalf("8 creates, writes and fsyncs caused %d commits; want 1..8 (compound commits)", c)
		}
	})
}

// TestExt4FasterThanXv6OnBatchedMetadata is Table 6's shape in
// miniature: a create-heavy workload without fsyncs costs ext4 far less
// virtual time than Bento's xv6 (compound commits vs per-op commits),
// each mounted as published.
func TestExt4FasterThanXv6OnBatchedMetadata(t *testing.T) {
	run := func(variant string) int64 {
		r := journaltest.New(t, variant, harness.Published(variant))
		start := r.Task.Clk.NowNS()
		for i := 0; i < 50; i++ {
			if err := r.M.WriteFile(r.Task, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte("d"), 8192)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.M.Sync(r.Task); err != nil {
			t.Fatal(err)
		}
		return r.Task.Clk.NowNS() - start
	}
	if ext4Time, xv6Time := run(harness.VariantExt4), run(harness.VariantBento); ext4Time >= xv6Time {
		t.Fatalf("ext4 (%d ns) should beat xv6 (%d ns) on batched metadata", ext4Time, xv6Time)
	}
}

// TestExt4ImagePassesFsck: ext4 writes its superblock in the shared
// layout's record with its own magic and journal size, so layout.Fsck
// reads an ext4 image like an xv6 one. After a workload of creates,
// writes spanning indirect blocks, renames, unlinks and a truncate, the
// unmounted image is consistent.
func TestExt4ImagePassesFsck(t *testing.T) {
	r := journaltest.New(t, harness.VariantExt4, harness.Published(harness.VariantExt4))
	m, task := r.M, r.Task
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
	r.Unmount(t)

	sb, err := layout.ReadSuperblock(task.Clk, r.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Magic != layout.Ext4Magic || sb.NLog != ext4.JournalSize {
		t.Fatalf("superblock %+v: want ext4's magic and a %d-block journal", sb, ext4.JournalSize)
	}
	rep, err := layout.Fsck(task.Clk, r.Dev)
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
