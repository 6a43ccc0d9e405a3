package vfsimpl_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/vclock"
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
// record beside them, and to return once the slots and the record have
// completed. Both mount without barriers, as published, so no
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
// without barriers, to return from a commit at its commit record and
// slots and checkpoint after them, and the next commit to write its log slots while
// that checkpoint runs, never over the checkpointed transaction's slots,
// and its record only once the clear has completed; an unmount waits
// for the last checkpoint.
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
			if err := r.Mkdirs("/d"); err != nil {
				t.Fatal(err)
			}
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
// directory's block, outlasts the next two commits, on the C-Kernel and
// on ext4 without barriers: a commit finds both record blocks busy and
// waits out the earlier clear, and every commit still keeps the
// checkpoint order.
func TestBothRecordBlocksBusy(t *testing.T) {
	for _, fsType := range []kernel.FileSystemType{vfsimpl.Type{}, ext4.Type{Cfg: ext4.Config{NoBarriers: true}}} {
		t.Run(fsType.Name(), func(t *testing.T) {
			r := rig(t, costmodel.Default(), fsType)
			r.SlowData(time.Millisecond)
			if err := r.Mkdirs("/a", "/b", "/c", "/d"); err != nil {
				t.Fatal(err)
			}
			r.RequireCheckpointOrder(t)
			r.RequireCheckpointWait(t)
		})
	}
}

// TestBesideRecordRecovers cuts the power right after a commit record
// whose log slots sit beside a running checkpoint, on the C-Kernel and on
// ext4 without barriers, as published, and with them: recovery installs
// that transaction from its own slots.
func TestBesideRecordRecovers(t *testing.T) {
	for _, c := range []struct {
		name   string
		fsType kernel.FileSystemType
	}{
		{"xv6vfs", vfsimpl.Type{}},
		{"ext4-nobarriers", ext4.Type{Cfg: ext4.Config{NoBarriers: true}}},
		{"ext4", ext4.Type{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig(t, costmodel.Default(), c.fsType).RequireBesideRecovery(t)
		})
	}
}

// TestTwoRecordsRecover cuts the power right after a commit record in
// block A was submitted while the previous commit's record in block B
// was still valid, on the C-Kernel and on ext4, both without barriers as
// published: recovery replays both in sequence order. With barriers a
// commit's slots queue behind the running checkpoint's FLUSH, so its
// record never overlaps that checkpoint's clear.
func TestTwoRecordsRecover(t *testing.T) {
	for _, c := range []struct {
		name   string
		fsType kernel.FileSystemType
	}{
		{"xv6vfs", vfsimpl.Type{}},
		{"ext4-nobarriers", ext4.Type{Cfg: ext4.Config{NoBarriers: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig(t, costmodel.Default(), c.fsType).RequireTwoRecordRecovery(t)
		})
	}
}

// TestFreedBlockRecovers: on ext4's compound log with the data bypass
// on, without barriers as published, a block the previous transaction
// logged and the next one frees and reuses as file data holds that data
// after a cut right after the next commit's record.
func TestFreedBlockRecovers(t *testing.T) {
	rig(t, costmodel.Default(), ext4.Type{Cfg: ext4.Config{NoBarriers: true, DataBypass: true}}).RequireFreedBlockRecovery(t)
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

// TestCompoundSyncWaitsForCommit: under ext4's compound policy task b's
// mkdir joins the running transaction and task a's sync, on a clock
// level with b's, commits it. b's own sync then finds nothing pending,
// but its mkdir is durable only once that commit's record has completed,
// so the sync must not return before then.
func TestCompoundSyncWaitsForCommit(t *testing.T) {
	r := rig(t, costmodel.Default(), ext4.Type{Cfg: ext4.Config{NoBarriers: true}})
	a, b := r.Task, r.K.NewTask("b")
	b.Clk.AdvanceTo(a.Clk.NowNS())
	if err := r.M.Mkdir(b, "/d"); err != nil {
		t.Fatal(err)
	}
	a.Clk.AdvanceTo(b.Clk.NowNS())
	if err := r.M.FS().Sync(a); err != nil {
		t.Fatal(err)
	}
	commits := r.Commits(1)
	if len(commits) == 0 {
		t.Fatal("a's sync committed nothing")
	}
	c := commits[len(commits)-1]
	if err := r.M.FS().Sync(b); err != nil {
		t.Fatal(err)
	}
	if now, recorded := b.Clk.NowNS(), c.Start+c.Dur; now < recorded {
		t.Errorf("b's sync returned at %d ns, before the commit carrying its mkdir recorded at %d ns", now, recorded)
	}
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
			})
		}
	}
}

// fatalTB is a testing.TB for running a check that must fail: run it on
// a goroutine of its own, and Fatal and Fatalf note the message and end
// that goroutine, as testing's do.
type fatalTB struct {
	testing.TB
	msg string
}

func (f *fatalTB) Helper() {}

func (f *fatalTB) Fatal(args ...any) {
	f.msg = fmt.Sprint(args...)
	runtime.Goexit()
}

func (f *fatalTB) Fatalf(format string, args ...any) {
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// TestRequireUncommittedReadsTheWholeLog: the check reads the commit
// record with the log's own capacity. In ext4's 1019-slot log a record
// of 200 blocks is a commit, which the check must report, not read as a
// corrupt, and so empty, record of a 127-slot log.
func TestRequireUncommittedReadsTheWholeLog(t *testing.T) {
	r := rig(t, costmodel.Fast(), ext4.Type{})
	if r.SB.NLog <= 200 {
		t.Fatalf("ext4's log has %d blocks, too few for the record below", r.SB.NLog)
	}
	le := binary.LittleEndian
	buf := make([]byte, layout.BlockSize)
	le.PutUint32(buf, 200)
	for i := 0; i < 200; i++ {
		le.PutUint32(buf[4+4*i:], r.SB.DataStart+uint32(i))
	}
	if err := r.Dev.Write(vclock.NewClock(), int(r.SB.LogStart), buf); err != nil {
		t.Fatal(err)
	}
	check := &fatalTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.RequireUncommitted(check)
	}()
	<-done
	if !strings.Contains(check.msg, "holds 200 blocks") {
		t.Fatalf("RequireUncommitted on a 200-block commit record: %q, want it to report the 200 blocks", check.msg)
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
