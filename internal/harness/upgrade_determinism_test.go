package harness

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestUpgradeScenarioDeterministic runs the live-upgrade availability
// experiment twice and requires identical virtual-time results for all
// four cells — the workload mix and the derived pause/transfer/max-
// latency numbers. The hot swap happens mid-window with readers and
// writers in flight, so this is the determinism check for the whole
// quiesce/transfer/resume protocol under load.
func TestUpgradeScenarioDeterministic(t *testing.T) {
	o := determinismOpts()
	_, first := runExp(t, ExpUpgrade, o)
	_, second := runExp(t, ExpUpgrade, o)
	requireEqual(t, first, second)

	cells := first // [mix, pause, xfer, maxlat] as the cell returns them
	if len(cells) != 4 || cells[0].Variant != VariantBento {
		t.Fatalf("upgrade records %+v, want Bento's 4 cells", cells)
	}
	if cells[0].Ops == 0 {
		t.Fatal("upgrade mix did no work")
	}
	pause, maxlat := time.Duration(cells[1].ElapsedNS), time.Duration(cells[3].ElapsedNS)
	if pause <= 0 {
		t.Fatalf("upgrade pause = %v, want > 0", pause)
	}
	if cells[2].Bytes == 0 {
		t.Fatal("upgrade transferred no state")
	}
	// A worker arriving just after the swap starts waits out (most of)
	// the pause, so the window's worst op latency must be of the pause's
	// order — the latency spike the cell exists to expose.
	if maxlat < pause/4 {
		t.Fatalf("max op latency %v is not of the pause's order (%v): no operation straddled the swap",
			maxlat, pause)
	}
}

// TestUpgradeParallelismInvariant serializes the upgrade experiment's
// records at -parallel=1 and -parallel=8 and requires byte-identical
// JSON — the four records come from one cell, whichever host worker
// runs it.
func TestUpgradeParallelismInvariant(t *testing.T) {
	run := func(parallel int) []byte {
		t.Helper()
		o := determinismOpts()
		o.Parallel = parallel
		results, err := RunMatrix([]string{ExpUpgrade}, o)
		if err != nil {
			t.Fatal(err)
		}
		var recs []Record
		for _, er := range results {
			recs = append(recs, er.Records...)
		}
		buf, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("upgrade records differ between -parallel=1 (%d bytes) and -parallel=8 (%d bytes)",
			len(seq), len(par))
	}
}
