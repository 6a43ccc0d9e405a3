package vfsimpl_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bento/internal/harness"
	"bento/internal/vclock"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

// The journal tests below run on the C-Kernel and on ext4 here, and on
// Bento in bentoimpl's tests of the same names. A row is named by its
// file-system type, "xv6vfs" or "ext4", then by the barrier setting
// where a test runs both, then "-bypass" when the data bypass is on.

var (
	noBarriers = harness.MountConfig{}
	barriers   = harness.MountConfig{Barriers: true}
	bypass     = harness.MountConfig{Bypass: true}
	bothOn     = harness.MountConfig{Barriers: true, Bypass: true}
)

// onCKernel and onExt4 are a row of the C-Kernel and of ext4.
func onCKernel(name string, mc harness.MountConfig) journaltest.Row {
	return journaltest.Row{Name: name, Variant: harness.VariantCKernel, MC: mc}
}

func onExt4(name string, mc harness.MountConfig) journaltest.Row {
	return journaltest.Row{Name: name, Variant: harness.VariantExt4, MC: mc}
}

// everyConfig are both variants under every combination of barriers and
// bypass.
var everyConfig = []journaltest.Row{
	onCKernel("xv6vfs", noBarriers), onCKernel("xv6vfs-barriers", barriers),
	onExt4("ext4-nobarriers", noBarriers), onExt4("ext4", barriers),
	onCKernel("xv6vfs-bypass", bypass), onCKernel("xv6vfs-barriers-bypass", bothOn),
	onExt4("ext4-nobarriers-bypass", bypass), onExt4("ext4-bypass", bothOn),
}

// TestCommitWritesLogAsOneBatch runs both without barriers, as
// published.
func TestCommitWritesLogAsOneBatch(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onCKernel("xv6vfs", noBarriers), onExt4("ext4", noBarriers),
		onCKernel("xv6vfs-bypass", bypass), onExt4("ext4-bypass", bypass),
	}, journaltest.CommitWritesLogAsOneBatch)
}

func TestCommitCheckpointsInBackground(t *testing.T) {
	journaltest.Run(t, everyConfig, journaltest.CommitCheckpointsInBackground)
}

// TestBothRecordBlocksBusy runs both without barriers, as published.
func TestBothRecordBlocksBusy(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onCKernel("xv6vfs", noBarriers), onExt4("ext4", noBarriers),
		onCKernel("xv6vfs-bypass", bypass), onExt4("ext4-bypass", bypass),
	}, journaltest.BothRecordBlocksBusy)
}

// TestOrderedData runs with the bypass on, which the row names leave
// out.
func TestOrderedData(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onCKernel("xv6vfs", bypass), onCKernel("xv6vfs-barriers", bothOn),
		onExt4("ext4-nobarriers", bypass), onExt4("ext4", bothOn),
	}, journaltest.OrderedData)
}

// TestCompoundSyncWaitsForCommit: under ext4's compound policy task b's
// mkdir joins the running transaction and task a's sync, on a clock
// level with b's, commits it. b's own sync then finds nothing pending,
// but its mkdir is durable only once that commit's record has completed,
// so the sync must not return before then.
func TestCompoundSyncWaitsForCommit(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onExt4("ext4-nobarriers", noBarriers), onExt4("ext4", barriers),
	}, func(t *testing.T, v string, mc harness.MountConfig) {
		r := journaltest.New(t, v, mc)
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
	})
}

// TestCreateReportsFailedCommit runs on the C-Kernel, whose log commits
// each operation as it ends.
func TestCreateReportsFailedCommit(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onCKernel("xv6vfs", noBarriers), onCKernel("xv6vfs-barriers", barriers),
		onCKernel("xv6vfs-bypass", bypass), onCKernel("xv6vfs-barriers-bypass", bothOn),
	}, journaltest.CreateReportsFailedCommit)
}

// TestFailedCommitReleasesBuffers runs each of journaltest.CommitFaults
// under a commit of the C-Kernel's per-operation log and of ext4's
// compound one.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	journaltest.Run(t, everyConfig, func(t *testing.T, v string, mc harness.MountConfig) {
		for _, f := range journaltest.CommitFaults {
			t.Run(f.Name, func(t *testing.T) { f.Run(t, v, mc) })
		}
	})
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
	r := journaltest.New(t, harness.VariantExt4, noBarriers)
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
