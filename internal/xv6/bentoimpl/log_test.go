package bentoimpl_test

import (
	"testing"

	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

// policyRows are variant's mounts under mcs, named by the sync policy
// harness.Mount picks from the barrier setting — "writeback" without
// barriers, "flush" with them — after prefix, with "-bypass" when the
// data bypass is on.
func policyRows(prefix, variant string, mcs ...harness.MountConfig) []journaltest.Row {
	rows := make([]journaltest.Row, len(mcs))
	for i, mc := range mcs {
		name := prefix + "writeback"
		if mc.Barriers {
			name = prefix + "flush"
		}
		if mc.Bypass {
			name += "-bypass"
		}
		rows[i] = journaltest.Row{Name: name, Variant: variant, MC: mc}
	}
	return rows
}

// The journal tests below run on Bento here, and on the C-Kernel and
// ext4 in vfsimpl's tests of the same names.

func TestCommitWritesLogAsOneBatch(t *testing.T) {
	journaltest.Run(t, policyRows("", harness.VariantBento, journaltest.DataPaths...), journaltest.CommitWritesLogAsOneBatch)
}

func TestCommitCheckpointsInBackground(t *testing.T) {
	journaltest.Run(t, policyRows("", harness.VariantBento, journaltest.AllConfigs...), journaltest.CommitCheckpointsInBackground)
}

func TestBothRecordBlocksBusy(t *testing.T) {
	journaltest.Run(t, policyRows("", harness.VariantBento, journaltest.DataPaths...), journaltest.BothRecordBlocksBusy)
}

// TestOrderedData runs with the bypass on, under both policies.
func TestOrderedData(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		{Name: "writeback", Variant: harness.VariantBento, MC: journaltest.BypassOn[0]},
		{Name: "flush", Variant: harness.VariantBento, MC: journaltest.BypassOn[1]},
	}, journaltest.OrderedData)
}

// TestFUSECommitStaysSerial is the guard on the paper's asymmetry: the
// FUSE daemon runs the same journal, but its disk has no asynchronous
// submission, so a commit still costs at least one device write per log
// slot and two more, and the daemon replies only once the commit's
// cleared record has completed.
func TestFUSECommitStaysSerial(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantFUSE}, journaltest.AllConfigs, func(t *testing.T, v string, mc harness.MountConfig) {
		r := journaltest.New(t, v, mc)
		if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
			t.Fatal(werr, serr)
		}
		big := r.Commits(4)
		if len(big) == 0 {
			t.Fatal("no commit of four or more blocks traced")
		}
		for _, c := range big {
			if floor := (c.A + 2) * int64(r.Model.DevWrite(layout.BlockSize)); c.Dur < floor {
				t.Errorf("daemon commit of %d blocks took %d ns, want at least %d ns (%d device writes)", c.A, c.Dur, floor, c.A+2)
			}
		}
		r.RequireCheckpointInCommit(t)
	})
}

// TestCommitsCountsTransactions: Bento's log counts the transactions
// committed, the sequence number of the last record: an empty group
// commit, such as each Sync after a mkdir that committed as it ended,
// writes no record and does not count. An upgrade carries the count to
// the replacement instance.
func TestCommitsCountsTransactions(t *testing.T) {
	r := journaltest.New(t, harness.VariantBento, harness.MountConfig{})
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

// TestUpgradeDrainsCheckpoint upgrades Bento right after a commit. The
// old instance hands over the log only once its checkpoint has
// completed, so the replacement's first commit, which knows nothing of
// the old instance's slots, writes none of them before the old
// instance's cleared record has completed.
func TestUpgradeDrainsCheckpoint(t *testing.T) {
	r := journaltest.New(t, harness.VariantBento, harness.MountConfig{})
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

// TestCreateReportsFailedCommit runs on Bento and on the FUSE daemon,
// which host the same per-operation log.
func TestCreateReportsFailedCommit(t *testing.T) {
	rows := append(policyRows("bento/", harness.VariantBento, journaltest.AllConfigs...),
		policyRows("fuse/", harness.VariantFUSE, journaltest.AllConfigs[:2]...)...)
	journaltest.Run(t, rows, journaltest.CreateReportsFailedCommit)
}

// TestFailedCommitReleasesBuffers runs each of journaltest.CommitFaults
// on Bento under both policies, with the bypass off and on.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	for _, f := range journaltest.CommitFaults {
		t.Run(f.Name, func(t *testing.T) {
			journaltest.Run(t, policyRows("", harness.VariantBento, journaltest.AllConfigs...), f.Run)
		})
	}
}

// TestFailedAllocationReleasesBuffers fails the bitmap block's read while
// a buffer is held, on a file whose only block sits behind its indirect
// block. Extending the file holds the indirect block in mapThrough while
// balloc fails; truncating it holds the indirect block in the child walk
// while bfree fails. Clean buffers are dropped first so the read reaches
// the device. The operation must fail, and once the fault clears the
// unmount succeeds and Bento's ownership checker has recorded nothing.
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
			journaltest.Each(t, journaltest.InKernel, journaltest.AllConfigs, func(t *testing.T, v string, mc harness.MountConfig) {
				r := journaltest.New(t, v, mc)
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
				r.Unmount(t)
			})
		})
	}
}
