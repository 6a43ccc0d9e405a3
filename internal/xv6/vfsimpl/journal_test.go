package vfsimpl_test

import (
	"strings"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// rig mounts the C-Kernel or ext4 on a journaltest rig.
func rig(t *testing.T, model *costmodel.Model, fsType kernel.FileSystemType) *journaltest.Rig {
	mkfs := journaltest.Mkfs
	if _, ok := fsType.(ext4.Type); ok {
		mkfs = func(t *kernel.Task, dev *blockdev.Device) error { return ext4.Mkfs(t, dev, 512) }
	}
	return journaltest.New(t, model, mkfs, fsType.Name(), func(k *kernel.Kernel) error { return k.Register(fsType) })
}

// TestCommitWritesLogAsOneBatch requires both journals to write a
// commit's log slots as one batch, in flight together, and the commit
// record after them. Both mount without barriers, as published, so no
// FLUSH hides inside the commit. The mkdir is the C-Kernel's commit of
// four blocks: its write-back commits one page at a time.
func TestCommitWritesLogAsOneBatch(t *testing.T) {
	for _, fsType := range []kernel.FileSystemType{vfsimpl.Type{}, ext4.Type{Cfg: ext4.Config{NoBarriers: true}}} {
		t.Run(fsType.Name(), func(t *testing.T) {
			r := rig(t, costmodel.Default(), fsType)
			if err := r.M.Mkdir(r.Task, "/d"); err != nil {
				t.Fatal(err)
			}
			if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
				t.Fatal(werr, serr)
			}
			r.RequireBatchedLog(t)
		})
	}
}

// TestCommitCheckpointsInBackground requires both journals, with and
// without barriers, to return from a commit at its commit record,
// checkpoint after it, and keep the next commit off the log until the
// clear has completed; an unmount waits for the last checkpoint.
func TestCommitCheckpointsInBackground(t *testing.T) {
	for _, c := range []struct {
		name   string
		fsType kernel.FileSystemType
	}{
		{"xv6vfs", vfsimpl.Type{}},
		{"xv6vfs-barriers", vfsimpl.Type{Cfg: vfsimpl.Config{FlushCommits: true}}},
		{"ext4-nobarriers", ext4.Type{Cfg: ext4.Config{NoBarriers: true}}},
		{"ext4", ext4.Type{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rig(t, costmodel.Default(), c.fsType)
			if err := r.M.Mkdir(r.Task, "/d"); err != nil {
				t.Fatal(err)
			}
			if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
				t.Fatal(werr, serr)
			}
			r.RequireCheckpointOrder(t)
			r.RequireUnmountDrains(t)
		})
	}
}

// TestOrderedData requires the data bypass's file data to be ordered
// data in both journals, on a device whose data writes complete a
// millisecond late, so that only the commit's own wait can keep the data
// ahead of the commit record. The C-Kernel commits each page's write-back
// as it ends, after the page's data. ext4's write-back joins the compound
// transaction without committing and returns after its data; a sync on a
// task that lags behind it then commits the transaction, and submits its
// record only after that data has completed, though its own log slots
// could complete sooner.
func TestOrderedData(t *testing.T) {
	t.Run("xv6vfs", func(t *testing.T) {
		r := rig(t, costmodel.Default(), vfsimpl.Type{Cfg: vfsimpl.Config{DataBypass: true}})
		r.SlowData(time.Millisecond)
		r.RequireOrderedData(t, func(task *kernel.Task) error { return r.WriteBack(task, "/f", 8) })
	})
	t.Run("ext4", func(t *testing.T) {
		r := rig(t, costmodel.Default(), ext4.Type{Cfg: ext4.Config{DataBypass: true}})
		r.SlowData(time.Millisecond)
		r.RequireOrderedData(t, func(task *kernel.Task) error {
			lag := r.K.NewTask("lagging")
			lag.Clk.AdvanceTo(task.Clk.NowNS())
			if err := r.WriteBack(task, "/f", 8); err != nil {
				return err
			}
			return r.M.FS().Sync(lag)
		})
	})
}

// TestCreateReportsFailedCommit requires a C-Kernel create whose commit
// fails to return the error: its mutations never became durable, so it
// must not report success.
func TestCreateReportsFailedCommit(t *testing.T) {
	r := rig(t, costmodel.Fast(), vfsimpl.Type{})
	r.Dev.InjectWriteError(int(r.SB.LogStart) + 1)
	if _, err := r.M.Open(r.Task, "/f", fsapi.OCreate); err == nil {
		t.Fatal("create returned success although its commit failed")
	}
}

// TestFailedCommitReleasesBuffers fails one device write under a commit
// of each journal — the C-Kernel's per-operation log and ext4's compound
// one — at a log slot, at the last log slot of a transaction of three or
// more blocks (while the slots before it are in flight), at the commit
// record and at a home block (the inode table). The failure must reach
// the caller, and the commit must give back every buffer it held: once
// the fault clears, Unmount — which fails while a buffer is still
// referenced — succeeds. A failed log slot must also leave the
// transaction uncommitted: once the fault clears, the on-device header
// holds no blocks and the image checks clean.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	for _, fsType := range []kernel.FileSystemType{vfsimpl.Type{}, ext4.Type{}} {
		last := rig(t, costmodel.Fast(), fsType).LastSlot(t)
		for _, c := range []struct {
			name string
			slot bool
			blk  func(layout.Superblock) int
		}{
			{"log-slot", true, func(sb layout.Superblock) int { return int(sb.LogStart) + 1 }},
			{"last-log-slot", true, func(layout.Superblock) int { return last }},
			{"log-header", false, func(sb layout.Superblock) int { return int(sb.LogStart) }},
			{"home", false, func(sb layout.Superblock) int { return int(sb.InodeStart) }},
		} {
			t.Run(fsType.Name()+"/"+c.name, func(t *testing.T) {
				r := rig(t, costmodel.Fast(), fsType)
				r.Dev.InjectWriteError(c.blk(r.SB))
				if werr, serr := r.WriteFile(1); werr == nil && serr == nil {
					t.Fatal("no operation saw the injected write error")
				}
				r.Dev.ClearFaults()
				if c.slot {
					r.RequireUncommitted(t)
				}
				if err := r.K.Unmount(r.Task, "/mnt"); err != nil {
					t.Fatalf("Unmount after a failed commit: %v", err)
				}
			})
		}
	}
}

// TestUnmountReportsHeldBuffers requires the C-Kernel's and ext4's
// Unmount to fail while a buffer is still referenced, naming how many.
func TestUnmountReportsHeldBuffers(t *testing.T) {
	type mounted interface {
		BufferCache() *kernel.BufferCache
	}
	for _, fsType := range []kernel.FileSystemType{vfsimpl.Type{}, ext4.Type{}} {
		t.Run(fsType.Name(), func(t *testing.T) {
			r := rig(t, costmodel.Fast(), fsType)
			if _, err := r.M.FS().(mounted).BufferCache().Get(r.Task, int(r.SB.InodeStart)); err != nil {
				t.Fatal(err)
			}
			err := r.K.Unmount(r.Task, "/mnt")
			if err == nil || !strings.Contains(err.Error(), "1 buffer(s) still referenced") {
				t.Fatalf("Unmount with a buffer held returned %v, want it to name 1 held buffer", err)
			}
		})
	}
}
