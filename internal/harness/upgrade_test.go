package harness_test

import (
	"testing"

	"bento/internal/core"
	"bento/internal/harness"
	"bento/internal/xv6/bentoimpl"
)

// TestUpgradeAblation measures the §4.8 online-upgrade pause on a live
// Bento mount and verifies it is bounded (well under a second of virtual
// time) while data written before the swap survives, and that the
// replacement, built from the mount's config, keeps the benchmarked
// single-copy data path: file data written after the swap still goes
// around the buffer cache.
func TestUpgradeAblation(t *testing.T) {
	tg, err := harness.NewTarget(harness.VariantBento, harness.Quick())
	if err != nil {
		t.Fatal(err)
	}
	task := tg.K.NewTask("op")
	if err := tg.M.WriteFile(task, "/pre", []byte("pre-upgrade data")); err != nil {
		t.Fatal(err)
	}
	if err := tg.M.Sync(task); err != nil {
		t.Fatal(err)
	}
	shim := tg.M.FS().(*core.BentoFS)
	before := task.Clk.Now()
	if err := shim.Upgrade(task, bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())); err != nil {
		t.Fatal(err)
	}
	pause := task.Clk.Now() - before
	t.Logf("online upgrade pause: %v (virtual)", pause)
	if pause.Seconds() > 1 {
		t.Fatalf("upgrade pause %v exceeds a second", pause)
	}
	got, err := tg.M.ReadFile(task, "/pre")
	if err != nil || string(got) != "pre-upgrade data" {
		t.Fatalf("post-upgrade read: %q %v", got, err)
	}

	direct := shim.SuperBlock().BufferCache().Stats().DirectWrites
	if err := tg.M.WriteFile(task, "/post", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := tg.M.Sync(task); err != nil {
		t.Fatal(err)
	}
	if after := shim.SuperBlock().BufferCache().Stats().DirectWrites; after <= direct {
		t.Fatalf("post-upgrade write-back made no direct writes (%d -> %d): the replacement left the mount's bypass data path", direct, after)
	}
}

// TestWritepagesAblation isolates the design choice DESIGN.md calls out:
// with everything else equal, the batched writepages path (Bento) must
// beat the per-page writepage path (C baseline) on sequential write-back.
func TestWritepagesAblation(t *testing.T) {
	o := harness.Quick()
	elapsed := func(variant string) int64 {
		tg, err := harness.NewTarget(variant, o)
		if err != nil {
			t.Fatal(err)
		}
		task := tg.K.NewTask("wb")
		data := make([]byte, 2<<20) // 512 pages
		if err := tg.M.WriteFile(task, "/wb", data); err != nil {
			t.Fatal(err)
		}
		start := task.Clk.NowNS()
		if err := tg.M.Sync(task); err != nil {
			t.Fatal(err)
		}
		return task.Clk.NowNS() - start
	}
	bento := elapsed(harness.VariantBento)
	ck := elapsed(harness.VariantCKernel)
	t.Logf("2MB writeback: bento=%dns c-kernel=%dns (%.1fx)", bento, ck, float64(ck)/float64(bento))
	if bento >= ck {
		t.Fatalf("batched writepages (%d) should beat per-page writepage (%d)", bento, ck)
	}
}
