package main

import (
	"strings"
	"testing"

	"bento/internal/harness"
)

func rec(exp, variant, cell string, ops int64, opsPerSec float64, bytes int64, mbps float64) harness.Record {
	return harness.Record{
		Experiment: exp, Variant: variant, Cell: cell,
		Ops: ops, OpsPerSec: opsPerSec, Bytes: bytes, MBps: mbps,
	}
}

func TestCompareCleanRunPasses(t *testing.T) {
	base := []harness.Record{
		rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 4096000, 200),
		rec("stream", "FUSE", "stream-read-1t-128k", 320, 10, 41943040, 46),
	}
	rep := Compare(base, base, 0.05)
	if rep.Failed() {
		t.Fatalf("identical runs failed the gate: %s", rep.Text())
	}
	if rep.Compared != 2 || len(rep.Improvements) != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestCompareFlagsRegressionBeyondTolerance(t *testing.T) {
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 900, 47000, 0, 0)} // -6%
	rep := Compare(base, fresh, 0.05)
	if !rep.Failed() || len(rep.Regressions) != 1 {
		t.Fatalf("6%% regression not flagged: %+v", rep)
	}
	if !strings.Contains(rep.Text(), "REGRESSED") {
		t.Fatalf("report text missing REGRESSED line:\n%s", rep.Text())
	}
	// Within tolerance passes.
	fresh[0].OpsPerSec = 48000 // -4%
	if rep := Compare(base, fresh, 0.05); rep.Failed() {
		t.Fatalf("4%% drift failed a 5%% gate: %s", rep.Text())
	}
}

func TestCompareMissingCellFails(t *testing.T) {
	base := []harness.Record{
		rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0),
		rec("fig2", "FUSE", "read-seq-32t-4k", 500, 25000, 0, 0),
	}
	rep := Compare(base, base[:1], 0.05)
	if !rep.Failed() || len(rep.Missing) != 1 {
		t.Fatalf("dropped cell not flagged: %+v", rep)
	}
}

func TestCompareAddedCellPasses(t *testing.T) {
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := append([]harness.Record{rec("stream", "Bento", "stream-read-4t-128k", 100, 10, 1, 400)}, base...)
	rep := Compare(base, fresh, 0.05)
	if rep.Failed() || len(rep.Added) != 1 {
		t.Fatalf("new cell mishandled: %+v", rep)
	}
}

func TestCompareUsesMBpsWhenNoOps(t *testing.T) {
	base := []harness.Record{rec("stream", "Bento", "stream-read-1t-128k", 0, 0, 40<<20, 430)}
	fresh := []harness.Record{rec("stream", "Bento", "stream-read-1t-128k", 0, 0, 40<<20, 200)}
	rep := Compare(base, fresh, 0.05)
	if !rep.Failed() {
		t.Fatal("MB/s regression not flagged when ops are absent")
	}
}

func TestCompareImprovementIsInformational(t *testing.T) {
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1200, 60000, 0, 0)}
	rep := Compare(base, fresh, 0.05)
	if rep.Failed() || len(rep.Improvements) != 1 {
		t.Fatalf("improvement mishandled: %+v", rep)
	}
}

func TestCompareZeroedFreshThroughputRegresses(t *testing.T) {
	// A cell that stopped measuring anything (ops and bytes zero) must
	// not silently pass just because the ratio is incomputable.
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 0, 0, 0, 0)}
	if rep := Compare(base, fresh, 0.05); !rep.Failed() {
		t.Fatal("zeroed cell not flagged as regression")
	}
}

func TestCompareSubToleranceDriftIsReported(t *testing.T) {
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 990, 49000, 0, 0)} // -2%
	rep := Compare(base, fresh, 0.05)
	if rep.Failed() {
		t.Fatalf("2%% drift failed a 5%% gate: %s", rep.Text())
	}
	if len(rep.Drifts) != 1 {
		t.Fatalf("sub-tolerance drift not reported: %+v", rep)
	}
	if !strings.Contains(rep.Text(), "drifted") {
		t.Fatalf("report text missing drift line:\n%s", rep.Text())
	}
}

func TestMarkdownReportListsCells(t *testing.T) {
	base := []harness.Record{
		rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0),
		rec("fig4", "FUSE", "write-seq-1t-32k", 500, 900, 0, 0),
		rec("stream", "Ext4", "stream-read-1t-128k", 320, 10, 41943040, 46),
	}
	fresh := []harness.Record{
		rec("fig2", "Bento", "read-seq-32t-4k", 800, 40000, 0, 0), // -20%: regression
		rec("fig4", "FUSE", "write-seq-1t-32k", 600, 1100, 0, 0),  // +22%: improvement
		// stream cell missing: fails
		rec("table4", "Bento", "createfiles-1t", 100, 2000, 0, 0), // new cell
	}
	rep := Compare(base, fresh, 0.05)
	md := rep.Markdown()
	if !strings.Contains(md, "❌ FAIL") {
		t.Fatalf("markdown missing FAIL verdict:\n%s", md)
	}
	for _, want := range []string{
		"Regressions (fail)",
		"| `fig2/Bento/read-seq-32t-4k` | 50000.0 | 40000.0 | -20.00% |",
		"Missing cells (fail)",
		"`stream/Ext4/stream-read-1t-128k`",
		"Improvements",
		"New cells",
		"`table4/Bento/createfiles-1t`",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}

	if ok := Compare(base, base, 0.05).Markdown(); !strings.Contains(ok, "✅ OK") {
		t.Fatalf("clean run markdown missing OK verdict:\n%s", ok)
	}
}

func TestMetricsAreInformational(t *testing.T) {
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	base[0].Metrics = map[string]int64{"page_hits": 900, "page_misses": 100, "syscalls": 1000}
	fresh[0].Metrics = map[string]int64{"page_hits": 950, "page_misses": 50, "syscalls": 1000, "ra_batches": 7}
	rep := Compare(base, fresh, 0.05)
	if rep.Failed() {
		t.Fatalf("metric deltas must never gate: %s", rep.Text())
	}
	if rep.MetricCells != 1 || len(rep.MetricDeltas) != 3 {
		t.Fatalf("metric deltas = %+v (cells %d)", rep.MetricDeltas, rep.MetricCells)
	}
	md := rep.Markdown()
	for _, want := range []string{
		"Trace-counter deltas (informational) — 3 changed across 1 traced cells",
		"| `fig2/Bento/read-seq-32t-4k` | `page_hits` | 900 | 950 | +50 |",
		"| `fig2/Bento/read-seq-32t-4k` | `page_misses` | 100 | 50 | -50 |",
		"| `fig2/Bento/read-seq-32t-4k` | `ra_batches` | 0 | 7 | +7 |",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "`syscalls`") {
		t.Fatalf("unchanged counter listed:\n%s", md)
	}
	if !strings.Contains(rep.Text(), "metrics: 3 counters changed across 1 traced cells") {
		t.Fatalf("text summary missing metrics line:\n%s", rep.Text())
	}
}

func TestMetricsAbsentOnOneSideAreIgnored(t *testing.T) {
	// Old baselines predate -metrics; comparing against them must not
	// produce a metrics section (and certainly must not fail).
	base := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh := []harness.Record{rec("fig2", "Bento", "read-seq-32t-4k", 1000, 50000, 0, 0)}
	fresh[0].Metrics = map[string]int64{"page_hits": 950}
	rep := Compare(base, fresh, 0.05)
	if rep.Failed() || rep.MetricCells != 0 || len(rep.MetricDeltas) != 0 {
		t.Fatalf("one-sided metrics mishandled: %+v", rep)
	}
	if strings.Contains(rep.Markdown(), "Trace-counter deltas") {
		t.Fatalf("markdown shows a metrics section without metrics on both sides:\n%s", rep.Markdown())
	}
}

func TestFilterExperiments(t *testing.T) {
	recs := []harness.Record{
		rec("fig2", "Bento", "read-seq-1t-4k", 1000, 50000, 0, 0),
		rec("netstore", "Bento", "lan-read-seq-1t-4k", 800, 40000, 0, 0),
		rec("netstore", "FUSE", "wan-varmail-16t", 40, 600, 0, 0),
		rec("stream", "Ext4", "stream-read-1t-128k", 320, 10, 41943040, 46),
	}
	got := FilterExperiments(recs, []string{" netstore ", ""})
	if len(got) != 2 || got[0].Cell != "lan-read-seq-1t-4k" || got[1].Cell != "wan-varmail-16t" {
		t.Fatalf("filter kept wrong records: %+v", got)
	}
	// A filtered gate compares only the kept experiment: the fig2 and
	// stream baseline cells must not be reported missing.
	repAll := Compare(recs, got, 0.05)
	if !repAll.Failed() {
		t.Fatal("unfiltered baseline vs netstore-only fresh run should fail on missing cells")
	}
	rep := Compare(FilterExperiments(recs, []string{"netstore"}), got, 0.05)
	if rep.Failed() || rep.Compared != 2 {
		t.Fatalf("filtered compare wrong: %s", rep.Text())
	}
}

// TestCounterCellGatedBothWays: a netfaults retry companion stores a
// count as ops per virtual second, so fewer retries must not read as a
// regression nor more retries as an improvement — a move either way
// beyond tolerance fails under its own label, and one within it drifts.
func TestCounterCellGatedBothWays(t *testing.T) {
	const cell = "lossy-lan-stream-retries"
	base := []harness.Record{rec("netfaults", "Bento", cell, 100, 100, 0, 0)}
	for _, n := range []int64{29, 300} {
		fresh := []harness.Record{rec("netfaults", "Bento", cell, n, float64(n), 0, 0)}
		rep := Compare(base, fresh, 0.05)
		if !rep.Failed() || len(rep.CounterMoves) != 1 || len(rep.Regressions) != 0 || len(rep.Improvements) != 0 {
			t.Fatalf("retries 100 -> %d: %+v, want one counter move and nothing else", n, rep)
		}
		if !strings.Contains(rep.Text(), "COUNTER    netfaults/Bento/"+cell) {
			t.Fatalf("retries 100 -> %d: text has no COUNTER line:\n%s", n, rep.Text())
		}
		if !strings.Contains(rep.Markdown(), "Counter cells moved") {
			t.Fatalf("retries 100 -> %d: markdown has no counter table:\n%s", n, rep.Markdown())
		}
	}
	fresh := []harness.Record{rec("netfaults", "Bento", cell, 103, 103, 0, 0)}
	if rep := Compare(base, fresh, 0.05); rep.Failed() || len(rep.Drifts) != 1 {
		t.Fatalf("retries 100 -> 103 at 5%%: %+v, want a passing drift", rep)
	}
	// The same name outside netfaults is an ordinary throughput cell.
	base[0].Experiment = "netstore"
	fresh = []harness.Record{rec("netstore", "Bento", cell, 300, 300, 0, 0)}
	if rep := Compare(base, fresh, 0.05); rep.Failed() || len(rep.Improvements) != 1 {
		t.Fatalf("non-counter cell rising: %+v, want an improvement", rep)
	}
}

// TestCounterCellsMatchBaseline: the cells harness names as counters
// are exactly the checked-in netfaults cells carrying the companion
// encoding — Ops over one virtual second.
func TestCounterCellsMatchBaseline(t *testing.T) {
	recs, err := readRecords("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, r := range recs {
		isCounter := harness.IsCounterCell(r.Experiment, r.Variant, r.Cell)
		encoded := r.Experiment == "netfaults" && r.ElapsedNS == 1e9 && r.OpsPerSec == float64(r.Ops)
		if isCounter != encoded {
			t.Errorf("%s/%s/%s: IsCounterCell = %v, companion encoding = %v", r.Experiment, r.Variant, r.Cell, isCounter, encoded)
		}
		if isCounter {
			counters++
		}
	}
	if counters != 13 {
		t.Fatalf("%d counter cells in the baseline, want 13", counters)
	}
}
