package harness_test

import (
	"testing"
	"time"

	"bento/internal/harness"
)

// quickRun runs one experiment at quick scale through RunMatrix, logs its
// table, and returns its records grouped by row, in cell order.
func quickRun(t *testing.T, id string) map[string][]harness.Record {
	t.Helper()
	out, err := harness.RunMatrix([]string{id}, harness.Quick())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out[0].Text)
	data := make(map[string][]harness.Record)
	for _, r := range out[0].Records {
		data[r.Variant] = append(data[r.Variant], r)
	}
	return data
}

// TestQuickShapes runs every performance experiment at reduced scale and
// asserts the paper's qualitative findings hold: Bento ≈ C-kernel on
// reads/writes (Bento ahead on batched writes), FUSE far behind on
// writes/metadata, ext4 ahead of the xv6 variants on the macrobenchmarks.
func TestQuickShapes(t *testing.T) {
	t.Run("fig2", func(t *testing.T) {
		data := quickRun(t, harness.ExpFig2)
		// All three variants within 2x on cached reads.
		for c := 0; c < 4; c++ {
			b := data[harness.VariantBento][c].OpsPerSec
			ck := data[harness.VariantCKernel][c].OpsPerSec
			fu := data[harness.VariantFUSE][c].OpsPerSec
			if b < ck/2 || b > ck*2 || fu < b/2 || fu > b*2 {
				t.Errorf("cell %d: read parity broken: bento=%.0f ck=%.0f fuse=%.0f", c, b, ck, fu)
			}
		}
		// 32 threads beat 1 thread.
		if data[harness.VariantBento][1].OpsPerSec < 2*data[harness.VariantBento][0].OpsPerSec {
			t.Error("no read scaling from 1t to 32t")
		}
	})

	t.Run("fig4", func(t *testing.T) {
		data := quickRun(t, harness.ExpFig4)
		// Cells: [seq-1t, rnd-1t, rnd-32t] x sizes (32K first).
		b := data[harness.VariantBento][0].MBps
		ck := data[harness.VariantCKernel][0].MBps
		fu := data[harness.VariantFUSE][0].MBps
		if b < ck {
			t.Errorf("Bento (%0.f MBps) should be >= C-Kernel (%.0f) on 32K seq writes (writepages batching)", b, ck)
		}
		if fu > b/5 {
			t.Errorf("FUSE writes (%.0f MBps) should be far below Bento (%.0f)", fu, b)
		}
	})

	t.Run("table4", func(t *testing.T) {
		data := quickRun(t, harness.ExpTable4)
		b := data[harness.VariantBento][0].OpsPerSec
		ck := data[harness.VariantCKernel][0].OpsPerSec
		fu := data[harness.VariantFUSE][0].OpsPerSec
		if b < ck*8/10 {
			t.Errorf("creates: bento=%.0f should be competitive with ck=%.0f", b, ck)
		}
		if fu > b/10 {
			t.Errorf("creates: FUSE=%.0f should be >=10x slower than bento=%.0f", fu, b)
		}
	})

	t.Run("table5", func(t *testing.T) {
		data := quickRun(t, harness.ExpTable5)
		b := data[harness.VariantBento][0].OpsPerSec
		fu := data[harness.VariantFUSE][0].OpsPerSec
		if fu > b/10 {
			t.Errorf("deletes: FUSE=%.0f should be >=10x slower than bento=%.0f", fu, b)
		}
	})

	t.Run("table6", func(t *testing.T) {
		data := quickRun(t, harness.ExpTable6)
		for i, name := range []string{"varmail", "fileserver"} {
			b := data[harness.VariantBento][i].OpsPerSec
			fu := data[harness.VariantFUSE][i].OpsPerSec
			e4 := data[harness.VariantExt4][i].OpsPerSec
			if fu > b/3 {
				t.Errorf("%s: FUSE=%.0f should be well below bento=%.0f", name, fu, b)
			}
			if e4 < b {
				t.Errorf("%s: ext4=%.0f should beat bento=%.0f", name, e4, b)
			}
		}
		// untar: seconds, lower better; ext4 < bento <= ck < fuse
		bU := time.Duration(data[harness.VariantBento][2].ElapsedNS)
		ckU := time.Duration(data[harness.VariantCKernel][2].ElapsedNS)
		fuU := time.Duration(data[harness.VariantFUSE][2].ElapsedNS)
		e4U := time.Duration(data[harness.VariantExt4][2].ElapsedNS)
		if bU > ckU {
			t.Errorf("untar: bento (%v) should be <= c-kernel (%v)", bU, ckU)
		}
		if e4U > bU {
			t.Errorf("untar: ext4 (%v) should be fastest, got %v vs bento %v", e4U, e4U, bU)
		}
		if fuU < 5*bU {
			t.Errorf("untar: FUSE (%v) should be far slower than bento (%v)", fuU, bU)
		}
	})
}
