package bentoimpl_test

import (
	"testing"

	"bento/internal/core"
	"bento/internal/costmodel"
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

// TestCommitWritesLogAsOneBatch requires a commit to write its log slots
// as one batch, in flight together, and its commit record after them.
func TestCommitWritesLogAsOneBatch(t *testing.T) {
	r := bentoRig(t, costmodel.Default(), bentoimpl.PolicyWriteBack)
	if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	r.RequireBatchedLog(t)
}

// TestFUSECommitStaysSerial is the guard on the paper's asymmetry: the
// FUSE daemon runs the same journal, but its disk has no asynchronous
// submission, so a commit still costs at least one device write per log
// slot and two more.
func TestFUSECommitStaysSerial(t *testing.T) {
	model := costmodel.Default()
	r := journaltest.New(t, model, journaltest.Mkfs, "fuse", func(k *kernel.Kernel) error {
		return k.Register(fuse.Type{Factory: func() core.FileSystem {
			return bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyWriteBack})
		}, DiskCacheBlocks: 64})
	})
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
			if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
				t.Fatalf("ownership violations after a failed commit: %v", v)
			}
		})
	}
}
