package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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

// TestQuantitiesGatedByDirection: a quantity is gated in the direction
// harness.Quantities declares. A count has none, so a move beyond
// tolerance either way is a COUNTER line and one within it drifts; a
// lower-is-better duration regresses when it rises and improves when it
// falls; a dropped quantity is missing and a new one is added.
func TestQuantitiesGatedByDirection(t *testing.T) {
	cell := func(exp, name string, q map[string]int64) []harness.Record {
		r := rec(exp, "Bento", name, 1000, 50000, 0, 0)
		r.Quantities = q
		return []harness.Record{r}
	}
	const fault, upgrade = "lossy-lan-stream-read-1t-128k", "upgrade-mix-2r2w"
	base := cell("netfaults", fault, map[string]int64{"net_retries": 100, "net_degraded": 0})
	for _, q := range []map[string]int64{
		{"net_retries": 29, "net_degraded": 0},
		{"net_retries": 300, "net_degraded": 0},
		{"net_retries": 100, "net_degraded": 3},
	} {
		rep := Compare(base, cell("netfaults", fault, q), 0.05)
		if !rep.Failed() || len(rep.CounterMoves) != 1 || len(rep.Regressions) != 0 || len(rep.Improvements) != 0 {
			t.Fatalf("counts %v -> %v: %+v, want one count move and nothing else", base[0].Quantities, q, rep)
		}
		if !strings.Contains(rep.Text(), "COUNTER    netfaults/Bento/"+fault+":net_") {
			t.Fatalf("counts -> %v: text has no COUNTER line:\n%s", q, rep.Text())
		}
		if !strings.Contains(rep.Markdown(), "Counts moved") {
			t.Fatalf("counts -> %v: markdown has no count table:\n%s", q, rep.Markdown())
		}
	}
	within := cell("netfaults", fault, map[string]int64{"net_retries": 103, "net_degraded": 0})
	if rep := Compare(base, within, 0.05); rep.Failed() || len(rep.Drifts) != 1 || rep.Quantities != 2 {
		t.Fatalf("retries 100 -> 103 at 5%%: %+v, want a passing drift over 2 quantities", rep)
	}

	base = cell("upgrade", upgrade, map[string]int64{"pause_ns": 1000000})
	longer := cell("upgrade", upgrade, map[string]int64{"pause_ns": 1100000})
	rep := Compare(base, longer, 0.05)
	if !rep.Failed() || len(rep.Regressions) != 1 || rep.Regressions[0].Key.Quantity != "pause_ns" {
		t.Fatalf("pause +10%%: %+v, want one regression", rep)
	}
	if !strings.Contains(rep.Text(), "REGRESSED  upgrade/Bento/"+upgrade+":pause_ns") || !strings.Contains(rep.Text(), "(+10.0%)") {
		t.Fatalf("pause +10%%: text has no REGRESSED line:\n%s", rep.Text())
	}
	shorter := cell("upgrade", upgrade, map[string]int64{"pause_ns": 900000})
	if rep := Compare(base, shorter, 0.05); rep.Failed() || len(rep.Improvements) != 1 {
		t.Fatalf("pause -10%%: %+v, want one improvement", rep)
	}

	dropped := cell("upgrade", upgrade, nil)
	rep = Compare(base, dropped, 0.05)
	if !rep.Failed() || len(rep.Missing) != 1 || rep.Missing[0].String() != "upgrade/Bento/"+upgrade+":pause_ns" {
		t.Fatalf("dropped quantity: %+v, want it missing", rep)
	}
	added := cell("upgrade", upgrade, map[string]int64{"pause_ns": 1000000, "xfer_ns": 20000})
	rep = Compare(base, added, 0.05)
	if rep.Failed() || len(rep.Added) != 1 || rep.Added[0].Quantity != "xfer_ns" {
		t.Fatalf("new quantity: %+v, want it added", rep)
	}
}

// TestBaselineQuantitiesDeclared: harness.Quantities and the checked-in
// baseline name the same quantities, so every gated quantity has a
// declared direction and no declaration is left unused.
func TestBaselineQuantitiesDeclared(t *testing.T) {
	recs, err := readRecords("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, r := range recs {
		for name := range r.Quantities {
			used[name] = true
			if _, ok := harness.Quantities[name]; !ok {
				t.Errorf("%s/%s/%s: quantity %q is not in harness.Quantities", r.Experiment, r.Variant, r.Cell, name)
			}
		}
	}
	for name := range harness.Quantities {
		if !used[name] {
			t.Errorf("harness.Quantities declares %q, which no baseline record carries", name)
		}
	}
}

// TestRunRejectsInputThatDisablesTheGate: input under which the gate
// would pass whatever the fresh run holds exits 2 before comparing, and
// the message names the input.
func TestRunRejectsInputThatDisablesTheGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...harness.Record) string {
		t.Helper()
		data, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := rec("fig2", "Bento", "read-seq-1t-4k", 2000, 80000, 0, 0)
	slow := rec("fig2", "Bento", "read-seq-1t-4k", 2000, 40000, 0, 0)
	base := write("base.json", good)
	fresh := write("fresh.json", good)
	dupFresh := write("dupfresh.json", slow, good)
	dupBase := write("dupbase.json", good, good)
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"clean run", []string{"-baseline", base, "-new", fresh, "-tol", "0"}, 0, ""},
		{"regression", []string{"-baseline", base, "-new", write("slow.json", slow)}, 1, ""},
		{"tol NaN", []string{"-baseline", base, "-new", fresh, "-tol", "NaN"}, 2, "-tol NaN"},
		{"tol infinite", []string{"-baseline", base, "-new", fresh, "-tol", "+Inf"}, 2, "-tol +Inf"},
		{"tol negative", []string{"-baseline", base, "-new", fresh, "-tol", "-0.01"}, 2, "-tol -0.01"},
		{"tol one", []string{"-baseline", base, "-new", fresh, "-tol", "1"}, 2, "-tol 1"},
		{"unknown experiment", []string{"-baseline", base, "-new", fresh, "-experiments", "netfault"}, 2, `"netfault"`},
		{"filter empties baseline", []string{"-baseline", base, "-new", fresh, "-experiments", "table1"}, 2, `"table1"`},
		{"duplicate in fresh", []string{"-baseline", base, "-new", dupFresh, "-tol", "0"}, 2, "dupfresh.json: cell fig2/Bento/read-seq-1t-4k recorded twice"},
		{"duplicate in baseline", []string{"-baseline", dupBase, "-new", fresh}, 2, "dupbase.json: cell fig2/Bento/read-seq-1t-4k recorded twice"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr %q does not name %q", tc.name, stderr.String(), tc.msg)
		}
	}
}
