package bentoimpl_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/vclock"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

// eachMount runs fn on a fresh rig of every variant over both data paths.
func eachMount(t *testing.T, fn func(t *testing.T, r *journaltest.Rig)) {
	journaltest.Each(t, harness.AllVariants, journaltest.DataPaths, func(t *testing.T, v string, mc harness.MountConfig) {
		fn(t, journaltest.New(t, v, mc))
	})
}

func TestMountFreshFS(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		ents, err := r.M.ReadDir(r.Task, "/")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("fresh root has entries: %v", ents)
		}
		st, err := r.M.Stat(r.Task, "/")
		if err != nil || st.Type != fsapi.TypeDir {
			t.Fatalf("root stat: %+v err %v", st, err)
		}
	})
}

func TestCreateWriteReadFsck(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		want := []byte("xv6 on bento, in a simulated kernel")
		if err := r.M.WriteFile(r.Task, "/hello", want); err != nil {
			t.Fatal(err)
		}
		got, err := r.M.ReadFile(r.Task, "/hello")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q err %v", got, err)
		}
		r.Fsck(t)
	})
}

func TestLargeFileThroughIndirects(t *testing.T) {
	// Span direct (12 blocks), indirect, and into double-indirect:
	// > (12+1024) blocks of 4K = >4MB. Use ~4.5MB.
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		size := (layout.NDirect + layout.NIndirect + 64) * layout.BlockSize
		data := make([]byte, size)
		rnd := rand.New(rand.NewSource(7))
		rnd.Read(data)
		if err := r.M.WriteFile(r.Task, "/big", data); err != nil {
			t.Fatal(err)
		}
		got, err := r.M.ReadFile(r.Task, "/big")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("double-indirect file corrupted")
		}
		r.Fsck(t)
		// Deleting it must return every block.
		free0, _ := r.M.StatFS(r.Task)
		if err := r.M.Unlink(r.Task, "/big"); err != nil {
			t.Fatal(err)
		}
		free1, _ := r.M.StatFS(r.Task)
		if free1.FreeBlocks <= free0.FreeBlocks {
			t.Fatalf("unlink freed nothing: %d -> %d", free0.FreeBlocks, free1.FreeBlocks)
		}
		r.Fsck(t)
	})
}

func TestSparseFileHoles(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		f, err := r.M.Open(r.Task, "/sparse", fsapi.ORdwr|fsapi.OCreate)
		if err != nil {
			t.Fatal(err)
		}
		defer r.M.Close(r.Task, f)
		// Write one byte far into the indirect range.
		off := int64((layout.NDirect + 100) * layout.BlockSize)
		if _, err := f.PWrite(r.Task, []byte{0xEE}, off); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(r.Task); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2)
		if _, err := f.PRead(r.Task, buf, off-1); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 || buf[1] != 0xEE {
			t.Fatalf("hole boundary = %v", buf)
		}
		st, _ := f.FStat(r.Task)
		if st.Size != off+1 {
			t.Fatalf("size = %d, want %d", st.Size, off+1)
		}
	})
}

func TestDirectoryTreeAndFsck(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		for i := 0; i < 3; i++ {
			dir := fmt.Sprintf("/d%d", i)
			if err := r.M.Mkdir(r.Task, dir); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				sub := fmt.Sprintf("%s/s%d", dir, j)
				if err := r.M.Mkdir(r.Task, sub); err != nil {
					t.Fatal(err)
				}
				if err := r.M.WriteFile(r.Task, sub+"/f", []byte(sub)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := r.M.ReadFile(r.Task, "/d1/s2/f")
		if err != nil || string(got) != "/d1/s2" {
			t.Fatalf("nested read: %q %v", got, err)
		}
		ents, err := r.M.ReadDir(r.Task, "/d2")
		if err != nil || len(ents) != 4 {
			t.Fatalf("readdir: %v %v", ents, err)
		}
		if rep := r.Fsck(t); rep.Dirs != 1+3+12 {
			t.Fatalf("dir census = %d", rep.Dirs)
		}
	})
}

func TestUnlinkRmdirErrors(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		if err := r.M.Mkdir(r.Task, "/d"); err != nil {
			t.Fatal(err)
		}
		if err := r.M.WriteFile(r.Task, "/d/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Unlink(r.Task, "/d"); !errors.Is(err, fsapi.ErrIsDir) {
			t.Fatalf("unlink dir = %v", err)
		}
		if err := r.M.Rmdir(r.Task, "/d/f"); !errors.Is(err, fsapi.ErrNotDir) {
			t.Fatalf("rmdir file = %v", err)
		}
		if err := r.M.Rmdir(r.Task, "/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
			t.Fatalf("rmdir non-empty = %v", err)
		}
		if err := r.M.Unlink(r.Task, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Rmdir(r.Task, "/d"); err != nil {
			t.Fatal(err)
		}
		r.Fsck(t)
	})
}

func TestRenameAcrossDirectories(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		if err := r.M.Mkdir(r.Task, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Mkdir(r.Task, "/b"); err != nil {
			t.Fatal(err)
		}
		if err := r.M.WriteFile(r.Task, "/a/f", []byte("moved")); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Rename(r.Task, "/a/f", "/b/g"); err != nil {
			t.Fatal(err)
		}
		got, err := r.M.ReadFile(r.Task, "/b/g")
		if err != nil || string(got) != "moved" {
			t.Fatalf("after rename: %q %v", got, err)
		}
		if _, err := r.M.Stat(r.Task, "/a/f"); !errors.Is(err, fsapi.ErrNotExist) {
			t.Fatalf("old name: %v", err)
		}
		// Move a directory across parents: ".." must be rewritten and
		// nlinks fixed — fsck verifies all of it.
		if err := r.M.Mkdir(r.Task, "/a/sub"); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Rename(r.Task, "/a/sub", "/b/sub"); err != nil {
			t.Fatal(err)
		}
		r.Fsck(t)
		st, err := r.M.Stat(r.Task, "/b/sub/..")
		if err != nil {
			t.Fatal(err)
		}
		bst, _ := r.M.Stat(r.Task, "/b")
		if st.Ino != bst.Ino {
			t.Fatalf(".. points at %d, want %d", st.Ino, bst.Ino)
		}
	})
}

func TestHardLinks(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		if err := r.M.WriteFile(r.Task, "/orig", []byte("linked")); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Link(r.Task, "/orig", "/alias"); err != nil {
			t.Fatal(err)
		}
		st, _ := r.M.Stat(r.Task, "/alias")
		if st.Nlink != 2 {
			t.Fatalf("nlink = %d", st.Nlink)
		}
		if err := r.M.Unlink(r.Task, "/orig"); err != nil {
			t.Fatal(err)
		}
		got, err := r.M.ReadFile(r.Task, "/alias")
		if err != nil || string(got) != "linked" {
			t.Fatalf("alias: %q %v", got, err)
		}
		r.Fsck(t)
	})
}

func TestUnlinkOpenFileDeferredFree(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		if err := r.M.WriteFile(r.Task, "/f", bytes.Repeat([]byte("z"), 3*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		// Force write-back so the file really owns disk blocks before the
		// unlink; otherwise the dirty pages are simply discarded.
		if err := r.M.Sync(r.Task); err != nil {
			t.Fatal(err)
		}
		f, err := r.M.Open(r.Task, "/f", fsapi.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := r.M.StatFS(r.Task)
		if err := r.M.Unlink(r.Task, "/f"); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := f.PRead(r.Task, buf, 0); err != nil {
			t.Fatalf("read after unlink: %v", err)
		}
		if err := r.M.Close(r.Task, f); err != nil {
			t.Fatal(err)
		}
		after, _ := r.M.StatFS(r.Task)
		if after.FreeBlocks <= before.FreeBlocks {
			t.Fatalf("blocks not freed on last close: %d -> %d", before.FreeBlocks, after.FreeBlocks)
		}
		r.Fsck(t)
	})
}

func TestTruncatePartialAndFull(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16KB, 4 blocks
		if err := r.M.WriteFile(r.Task, "/t", data); err != nil {
			t.Fatal(err)
		}
		f, err := r.M.Open(r.Task, "/t", fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(r.Task, 5000); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(r.Task); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 5000)
		n, err := f.PRead(r.Task, buf, 0)
		if err != nil || n != 5000 {
			t.Fatalf("read after truncate: n=%d err=%v", n, err)
		}
		if !bytes.Equal(buf, data[:5000]) {
			t.Fatal("truncate corrupted head")
		}
		// Re-extend: tail must read zero, not stale bytes.
		if err := f.Truncate(r.Task, 9000); err != nil {
			t.Fatal(err)
		}
		tail := make([]byte, 100)
		if _, err := f.PRead(r.Task, tail, 5100); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tail, make([]byte, 100)) {
			t.Fatal("stale bytes after re-extend")
		}
		if err := r.M.Close(r.Task, f); err != nil {
			t.Fatal(err)
		}
		r.Fsck(t)
	})
}

// TestPartialTruncateUnmapsTail runs here on all but ext4, which runs it
// as TestExt4PartialTruncateUnmapsTail.
func TestPartialTruncateUnmapsTail(t *testing.T) {
	variants := []string{harness.VariantBento, harness.VariantFUSE, harness.VariantCKernel}
	journaltest.Each(t, variants, journaltest.DataPaths, journaltest.PartialTruncateUnmapsTail)
}

func TestManyFilesCreateDelete(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		const n = 200
		for i := 0; i < n; i++ {
			if err := r.M.WriteFile(r.Task, fmt.Sprintf("/f%03d", i), []byte{byte(i)}); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		ents, err := r.M.ReadDir(r.Task, "/")
		if err != nil || len(ents) != n {
			t.Fatalf("readdir: %d entries, err %v", len(ents), err)
		}
		for i := 0; i < n; i += 2 {
			if err := r.M.Unlink(r.Task, fmt.Sprintf("/f%03d", i)); err != nil {
				t.Fatalf("unlink %d: %v", i, err)
			}
		}
		if rep := r.Fsck(t); rep.Files != n/2 {
			t.Fatalf("files = %d, want %d", rep.Files, n/2)
		}
	})
}

// TestConcurrentWorkloadFsck runs eight workers on one mount the way
// every benchmark cell does: under a vclock group, one worker on the
// host at a time, yielding between operations. Free-running goroutines
// on a shared mount are outside the determinism contract (and this test
// used to fail one run in eight that way; see ROADMAP, "Sequential by
// contract").
func TestConcurrentWorkloadFsck(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		const workers, files = 8, 20
		payload := func(w, i int) []byte { return bytes.Repeat([]byte{byte(w*16 + i)}, 6000) }
		run := func(w int, sw *vclock.Worker, task *kernel.Task) error {
			dir := fmt.Sprintf("/w%d", w)
			if err := r.M.Mkdir(task, dir); err != nil {
				return err
			}
			for i := 0; i < files; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				sw.Yield()
				if err := r.M.WriteFile(task, p, payload(w, i)); err != nil {
					return fmt.Errorf("w%d write %d: %w", w, i, err)
				}
				if i%3 == 0 {
					sw.Yield()
					if err := r.M.Unlink(task, p); err != nil {
						return fmt.Errorf("w%d unlink %d: %w", w, i, err)
					}
				}
			}
			for i := 0; i < files; i++ {
				if i%3 == 0 {
					continue
				}
				sw.Yield()
				got, err := r.M.ReadFile(task, fmt.Sprintf("%s/f%d", dir, i))
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
		vclock.NewGroup(r.Task.Clk.Now()).Run(workers, func(w int, sw *vclock.Worker) {
			errs[w] = run(w, sw, r.K.NewTaskWithClock(fmt.Sprintf("w%d", w), sw.Clock()))
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		r.Fsck(t)
	})
}

func TestOutOfSpace(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		r.M.SetDirtyLimit(4) // write back eagerly so ENOSPC hits the writer
		var err error
		i := 0
		for ; i < 10000 && err == nil; i++ {
			err = r.M.WriteFile(r.Task, fmt.Sprintf("/f%d", i), bytes.Repeat([]byte("x"), 64<<10))
		}
		if !errors.Is(err, fsapi.ErrNoSpace) {
			t.Fatalf("err = %v, want ErrNoSpace", err)
		}
		// Drop the partially-written victims (their dirty pages can never
		// be written back), then the file system must still be consistent.
		for j := i - 2; j < i; j++ {
			if j >= 0 {
				_ = r.M.Unlink(r.Task, fmt.Sprintf("/f%d", j))
			}
		}
		r.Fsck(t)
	})
}

func TestRemountSeesData(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		if err := r.M.WriteFile(r.Task, "/persist", []byte("still here")); err != nil {
			t.Fatal(err)
		}
		r.Unmount(t)
		m, task := r.Remount(t, r.Dev)
		got, err := m.ReadFile(task, "/persist")
		if err != nil || string(got) != "still here" {
			t.Fatalf("remount read: %q %v", got, err)
		}
	})
}

// TestCrashMidWorkloadAlwaysConsistent: whatever the crash point,
// recovery must yield a consistent file system under the flush policy
// (data since the last commit may be lost, never corrupted).
func TestCrashMidWorkloadAlwaysConsistent(t *testing.T) {
	for seed := int64(10); seed < 18; seed++ {
		r := journaltest.New(t, harness.VariantBento, harness.MountConfig{Barriers: true})
		// Unsynced workload: a mix of creates, writes, deletes.
		for i := 0; i < 12; i++ {
			p := fmt.Sprintf("/w%d", i)
			_ = r.M.WriteFile(r.Task, p, bytes.Repeat([]byte{byte(i)}, 5000))
			if i%4 == 3 {
				_ = r.M.Unlink(r.Task, fmt.Sprintf("/w%d", i-1))
			}
		}
		r.Dev.Crash(float64(seed%3)/2, seed) // keep 0%, 50%, or 100%
		_, task := r.Remount(t, r.Dev)
		rep, err := layout.Fsck(task.Clk, r.Dev)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d: inconsistent after crash recovery: %v", seed, rep.Errors)
		}
	}
}

// TestGroupCommitAbsorption: many small writes to one file, then one
// fsync — the page cache and the log batch them into a few commits.
func TestGroupCommitAbsorption(t *testing.T) {
	eachMount(t, func(t *testing.T, r *journaltest.Rig) {
		f, err := r.M.Open(r.Task, "/a", fsapi.ORdwr|fsapi.OCreate)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if _, err := f.PWrite(r.Task, []byte("x"), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.FSync(r.Task); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Close(r.Task, f); err != nil {
			t.Fatal(err)
		}
		if c := len(r.Commits(1)); c > 8 {
			t.Fatalf("64 one-byte writes caused %d commits; page cache + log should batch", c)
		}
	})
}

func TestCreateCostIsPerBlock(t *testing.T) {
	journaltest.Each(t, harness.AllVariants, journaltest.DataPaths, journaltest.CreateCostIsPerBlock)
}

func TestMultiBlockDirectory(t *testing.T) {
	journaltest.Each(t, harness.AllVariants, journaltest.DataPaths, journaltest.MultiBlockDirectory)
}
