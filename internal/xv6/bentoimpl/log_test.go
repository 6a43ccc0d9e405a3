package bentoimpl_test

import (
	"testing"
	"time"

	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/fuse"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

func bentoRig(t *testing.T, model *costmodel.Model, policy bentoimpl.SyncPolicy) *journaltest.Rig {
	return journaltest.New(t, model, journaltest.Mkfs, "xv6", func(k *kernel.Kernel) error {
		return bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{Policy: policy})
	})
}

// fuseRig mounts the FUSE daemon running this file system.
func fuseRig(t *testing.T, model *costmodel.Model, policy bentoimpl.SyncPolicy) *journaltest.Rig {
	return journaltest.New(t, model, journaltest.Mkfs, "fuse", func(k *kernel.Kernel) error {
		return k.Register(fuse.Type{Factory: func() core.FileSystem {
			return bentoimpl.New(bentoimpl.Config{Policy: policy})
		}, DiskCacheBlocks: 64})
	})
}

// TestCommitWritesLogAsOneBatch requires a commit to write its log slots
// as one batch, in flight together, and its commit record beside them,
// and to return once its slots and its record have completed.
func TestCommitWritesLogAsOneBatch(t *testing.T) {
	r := bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack)
	if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	r.RequireBatchedLog(t)
}

// TestCommitCheckpointsInBackground requires a commit to return at its
// commit record and slots under both policies and checkpoint after it, and the
// next commit to write its log slots while that checkpoint runs, never
// over the checkpointed transaction's slots, and its record only once
// the clear has completed; an unmount waits for the last checkpoint.
func TestCommitCheckpointsInBackground(t *testing.T) {
	for policy, name := range map[bentoimpl.SyncPolicy]string{bentoimpl.PolicyWriteBack: "writeback", bentoimpl.PolicyFlush: "flush"} {
		t.Run(name, func(t *testing.T) {
			r := bentoRig(t, costmodel.Default(), policy)
			if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
				t.Fatal(werr, serr)
			}
			r.RequireCheckpointOrder(t)
			r.RequireLogOverlap(t)
			r.RequireUnmountDrains(t)
		})
	}
}

// TestBothRecordBlocksBusy slows every data-region write by a
// millisecond, so each mkdir's checkpoint, which installs the parent
// directory's block, outlasts the next two commits: a commit finds both
// record blocks busy and waits out the earlier clear, and every commit
// still keeps the checkpoint order.
func TestBothRecordBlocksBusy(t *testing.T) {
	r := bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack)
	r.SlowData(time.Millisecond)
	if err := r.Mkdirs("/a", "/b", "/c", "/d"); err != nil {
		t.Fatal(err)
	}
	r.RequireCheckpointOrder(t)
	r.RequireCheckpointWait(t)
}

// TestBesideRecordRecovers cuts the power right after a commit record
// whose log slots sit beside a running checkpoint, under both policies:
// recovery installs that transaction from its own slots.
func TestBesideRecordRecovers(t *testing.T) {
	for policy, name := range map[bentoimpl.SyncPolicy]string{bentoimpl.PolicyWriteBack: "writeback", bentoimpl.PolicyFlush: "flush"} {
		t.Run(name, func(t *testing.T) {
			bentoRig(t, costmodel.Default(), policy).RequireBesideRecovery(t)
		})
	}
}

// TestCommitsCountsTransactions: the log's commit count is the number
// of transactions committed, the sequence number of the last record: an
// empty group commit, such as each Sync after a mkdir that committed as
// it ended, writes no record and does not count. An upgrade carries it
// to the replacement instance.
func TestCommitsCountsTransactions(t *testing.T) {
	r := bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack)
	if err := r.Mkdirs("/a", "/b", "/c"); err != nil {
		t.Fatal(err)
	}
	shim := r.M.FS().(*core.BentoFS)
	if got, want := shim.Inner().(*bentoimpl.FS).Log().Commits(), int64(len(r.Commits(1))); got != want || want != 3 {
		t.Fatalf("Commits() = %d after %d traced commits, want 3", got, want)
	}
	if err := shim.Upgrade(r.Task, bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())); err != nil {
		t.Fatal(err)
	}
	if got := shim.Inner().(*bentoimpl.FS).Log().Commits(); got != 3 {
		t.Fatalf("Commits() = %d after the upgrade, want the 3 carried over", got)
	}
}

// TestUpgradeDrainsCheckpoint upgrades right after a commit. The old
// instance hands over the log only once its checkpoint has completed, so
// the replacement's first commit, which knows nothing of the old
// instance's slots, writes none of them before the old instance's
// cleared record has completed.
func TestUpgradeDrainsCheckpoint(t *testing.T) {
	r := bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack)
	if err := r.M.Mkdir(r.Task, "/d"); err != nil {
		t.Fatal(err)
	}
	shim := r.M.FS().(*core.BentoFS)
	if err := shim.Upgrade(r.Task, bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())); err != nil {
		t.Fatal(err)
	}
	if err := r.M.Mkdir(r.Task, "/e"); err != nil {
		t.Fatal(err)
	}
	r.RequireCheckpointOrder(t)
}

// TestOrderedData requires the data bypass's file data to be ordered
// data under both policies: on a device whose data writes complete a
// millisecond late, so that only the commit's own wait can keep the data
// ahead of the commit record, every write-back commit submits its record
// after the data it carries has completed, and the write-back returns
// after its data.
func TestOrderedData(t *testing.T) {
	for policy, name := range map[bentoimpl.SyncPolicy]string{bentoimpl.PolicyWriteBack: "writeback", bentoimpl.PolicyFlush: "flush"} {
		t.Run(name, func(t *testing.T) {
			r := journaltest.New(t, costmodel.Default(), journaltest.Mkfs, "xv6", func(k *kernel.Kernel) error {
				return bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{Policy: policy, DataBypass: true})
			})
			r.SlowData(time.Millisecond)
			r.RequireOrderedData(t, func(task *kernel.Task) error { return r.WriteBack(task, "/f", 40) })
		})
	}
}

// TestFUSECommitStaysSerial is the guard on the paper's asymmetry: the
// FUSE daemon runs the same journal, but its disk has no asynchronous
// submission, so a commit still costs at least one device write per log
// slot and two more, and the daemon replies only once the commit's
// cleared record has completed.
func TestFUSECommitStaysSerial(t *testing.T) {
	model := costmodel.Default()
	r := fuseRig(t, model, bentoimpl.PolicyWriteBack)
	if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	big := r.Commits(4)
	if len(big) == 0 {
		t.Fatal("no commit of four or more blocks traced")
	}
	for _, c := range big {
		if floor := (c.A + 2) * int64(model.DevWrite(layout.BlockSize)); c.Dur < floor {
			t.Errorf("daemon commit of %d blocks took %d ns, want at least %d ns (%d device writes)", c.A, c.Dur, floor, c.A+2)
		}
	}
	r.RequireCheckpointInCommit(t)
}

// TestCreateReportsFailedCommit requires a create and a mkdir whose
// commit fails to return the error, on Bento and on the FUSE daemon
// under both policies: their mutations never became durable, so they
// must not report success.
func TestCreateReportsFailedCommit(t *testing.T) {
	for _, mount := range []struct {
		name string
		rig  func(*testing.T, *costmodel.Model, bentoimpl.SyncPolicy) *journaltest.Rig
	}{{"bento", bentoRig}, {"fuse", fuseRig}} {
		for policy, pname := range map[bentoimpl.SyncPolicy]string{bentoimpl.PolicyWriteBack: "writeback", bentoimpl.PolicyFlush: "flush"} {
			for _, op := range []struct {
				name string
				do   func(*journaltest.Rig) error
			}{
				{"create", func(r *journaltest.Rig) error {
					_, err := r.M.Open(r.Task, "/f", fsapi.OCreate)
					return err
				}},
				{"mkdir", func(r *journaltest.Rig) error { return r.M.Mkdir(r.Task, "/d") }},
			} {
				t.Run(mount.name+"/"+pname+"/"+op.name, func(t *testing.T) {
					r := mount.rig(t, costmodel.Fast(), policy)
					r.Dev.InjectWriteError(int(r.SB.LogStart) + 1)
					if err := op.do(r); err == nil {
						t.Fatalf("%s returned success although its commit failed", op.name)
					}
				})
			}
		}
	}
}

// TestFailedCommitReleasesBuffers fails one device write under a journal
// commit — a log slot (step 1), the last log slot of a transaction of
// three or more blocks while the slots before it are in flight, the log
// header (step 2) and a home block (step 3, the inode table) — and
// requires the commit to give back every buffer it held: once the fault
// clears, Unmount succeeds and the ownership checker has recorded
// nothing. A failed log slot must also leave the transaction
// uncommitted: once the fault clears, the on-device header holds no
// blocks and the image checks clean.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	model := costmodel.Fast()
	last := bentoRig(t, model, bentoimpl.PolicyFlush).LastSlot(t)
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
		t.Run(c.name, func(t *testing.T) {
			r := bentoRig(t, model, bentoimpl.PolicyFlush)
			shim := r.M.FS().(*core.BentoFS)
			r.Dev.InjectWriteError(c.blk(r.SB))
			if err := r.Mkdirs("/d"); err == nil {
				t.Fatal("no operation saw the injected write error")
			}
			r.Dev.ClearFaults()
			if c.slot {
				r.RequireUncommitted(t)
			}
			if err := r.K.Unmount(r.Task, "/mnt"); err != nil {
				t.Fatalf("Unmount after a failed commit: %v", err)
			}
			if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
				t.Fatalf("ownership violations after a failed commit: %v", v)
			}
		})
	}
}

// TestFailedAllocationReleasesBuffers fails the bitmap block's read while
// a buffer is held, on a file whose only block sits behind its indirect
// block. Extending the file holds the indirect block in mapThrough while
// balloc fails; truncating it holds the indirect block in the child walk
// while bfree fails. Clean buffers are dropped first so the read reaches
// the device. The operation must fail, and once the fault clears Unmount
// succeeds and the ownership checker has recorded nothing.
func TestFailedAllocationReleasesBuffers(t *testing.T) {
	page := make([]byte, layout.BlockSize)
	for _, c := range []struct {
		name string
		op   func(*journaltest.Rig, *kernel.File) error
	}{
		{"extend", func(r *journaltest.Rig, f *kernel.File) error {
			if _, err := f.PWrite(r.Task, page, (layout.NDirect+1)*layout.BlockSize); err != nil {
				return err
			}
			return f.FSync(r.Task)
		}},
		{"truncate", func(r *journaltest.Rig, f *kernel.File) error { return f.Truncate(r.Task, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := bentoRig(t, costmodel.Fast(), bentoimpl.PolicyFlush)
			shim := r.M.FS().(*core.BentoFS)
			f, err := r.M.Open(r.Task, "/f", fsapi.OCreate|fsapi.ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.PWrite(r.Task, page, layout.NDirect*layout.BlockSize); err != nil {
				t.Fatal(err)
			}
			if err := f.FSync(r.Task); err != nil {
				t.Fatal(err)
			}
			r.M.DropCaches()
			r.Dev.InjectReadError(int(r.SB.BitmapBlock(r.SB.DataStart)))
			if err := c.op(r, f); err == nil {
				t.Fatal("the operation succeeded although the bitmap block could not be read")
			}
			r.Dev.ClearFaults()
			if err := r.M.Close(r.Task, f); err != nil {
				t.Fatal(err)
			}
			if err := r.K.Unmount(r.Task, "/mnt"); err != nil {
				t.Fatalf("Unmount after a failed allocation: %v", err)
			}
			if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
				t.Fatalf("ownership violations after a failed allocation: %v", v)
			}
		})
	}
}

// TestTwoRecordsRecover cuts the power right after a commit record in
// block A was submitted while the previous commit's record in block B
// was still valid: recovery replays both in sequence order. The mount
// runs without barriers, as published; with them, a commit's slots
// queue behind the running checkpoint's FLUSH, so its record never
// overlaps that checkpoint's clear.
func TestTwoRecordsRecover(t *testing.T) {
	bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack).RequireTwoRecordRecovery(t)
}
