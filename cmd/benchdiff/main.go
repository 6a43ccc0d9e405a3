// benchdiff is the CI perf-regression gate: it compares a fresh
// `bentobench -json` run against a checked-in baseline and exits
// nonzero if any virtual-time cell regressed beyond tolerance.
//
// Usage:
//
//	bentobench -quick -json > fresh.json
//	benchdiff -baseline BENCH_baseline.json -new fresh.json [-tol 0.05]
//
// -experiments restricts the gate to a comma-separated experiment list:
// both sides are filtered before comparison, so a fresh run of one
// experiment (`bentobench -exp netstore -json`) gates against exactly
// that experiment's baseline cells instead of failing every other
// baseline cell as missing.
//
// Every cell is compared on its throughput metric — ops/sec for the
// metadata and op-count benchmarks, MB/s for the byte-moving ones. All
// workloads run either fixed work or a fixed virtual window, so lower
// throughput is slower in both regimes (untar's seconds, for instance,
// appear inversely in its ops/sec). Cells present in the baseline but
// missing from the fresh run fail the gate (a silent loss of coverage
// is a regression too); new cells are reported and pass — commit the
// regenerated baseline alongside the change that adds them.
//
// A cell's quantities (the upgrade pause, a netfaults cell's retry
// count) are gated too, keyed cell:name, in the direction
// harness.Quantities declares: a lower-is-better one regresses when
// old/new falls below 1-tol, as a throughput does; a two-sided count
// that moves beyond tolerance either way is a COUNTER line. A baseline
// quantity absent from the fresh record is MISSING.
//
// Because benchmark virtual time is deterministic (see the vclock
// scheduler), a clean run reproduces the baseline bit-for-bit and the
// tolerance guards only intentional cost-model or code changes: any
// drift at all means a real change in modeled behaviour. Input that
// would disable the gate (a -tol outside [0, 1), an -experiments filter
// naming no baseline cell, a cell recorded twice) exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"bento/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, gates, and returns the exit code
// (0 pass, 1 the gate failed, 2 bad input).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "checked-in bentobench -json baseline")
	newPath := fs.String("new", "", "fresh bentobench -json output to gate")
	tol := fs.Float64("tol", 0.05, "allowed fractional regression per cell, in [0, 1)")
	mdPath := fs.String("md", "", "append a Markdown report to this file (CI passes $GITHUB_STEP_SUMMARY so the per-cell table lands on the run's summary page)")
	experiments := fs.String("experiments", "", "comma-separated experiment ids to compare (default all); filters baseline and fresh records alike")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchdiff: "+format+"\n", a...)
		return 2
	}
	if *newPath == "" {
		fs.Usage()
		return fail("-new is required")
	}
	if !(*tol >= 0 && *tol < 1) { // NaN fails both comparisons
		return fail("-tol %v: want a fraction in [0, 1)", *tol)
	}
	baseline, err := readRecords(*baselinePath)
	if err != nil {
		return fail("%v", err)
	}
	fresh, err := readRecords(*newPath)
	if err != nil {
		return fail("%v", err)
	}
	if *experiments != "" {
		keep := strings.Split(*experiments, ",")
		for _, id := range keep {
			if id = strings.TrimSpace(id); id != "" && !slices.Contains(harness.AllExperiments, id) {
				return fail("-experiments: unknown experiment %q (have %s)", id, strings.Join(harness.AllExperiments, ", "))
			}
		}
		baseline = FilterExperiments(baseline, keep)
		fresh = FilterExperiments(fresh, keep)
		if len(baseline) == 0 {
			return fail("-experiments %q leaves no cell of %s to compare", *experiments, *baselinePath)
		}
	}
	rep := Compare(baseline, fresh, *tol)
	fmt.Fprint(stdout, rep.Text())
	if *mdPath != "" {
		f, err := os.OpenFile(*mdPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			_, err = f.WriteString(rep.Markdown())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fail("writing %s: %v", *mdPath, err)
		}
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

// readRecords loads a bentobench -json file. A cell recorded twice is an
// error: the gate would compare only one copy, and could pass on the
// wrong one.
func readRecords(path string) ([]harness.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []harness.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[cellKey]bool, len(recs))
	for _, r := range recs {
		k := keyOf(r)
		if seen[k] {
			return nil, fmt.Errorf("%s: cell %s recorded twice", path, k)
		}
		seen[k] = true
	}
	return recs, nil
}

// FilterExperiments keeps only records whose Experiment is in keep
// (whitespace around ids tolerated, record order preserved).
func FilterExperiments(recs []harness.Record, keep []string) []harness.Record {
	want := make(map[string]bool, len(keep))
	for _, id := range keep {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	out := make([]harness.Record, 0, len(recs))
	for _, r := range recs {
		if want[r.Experiment] {
			out = append(out, r)
		}
	}
	return out
}

// cellKey identifies one benchmark cell across runs, or with Quantity
// set, one of the cell's quantities.
type cellKey struct {
	Experiment, Variant, Cell, Quantity string
}

func keyOf(r harness.Record) cellKey { return cellKey{r.Experiment, r.Variant, r.Cell, ""} }

func (k cellKey) String() string {
	s := fmt.Sprintf("%s/%s/%s", k.Experiment, k.Variant, k.Cell)
	if k.Quantity != "" {
		s += ":" + k.Quantity
	}
	return s
}

// Delta is one compared cell throughput or quantity.
type Delta struct {
	Key      cellKey
	Old, New float64 // throughput (ops/sec or MB/s), or the quantity's value
	Ratio    float64 // how much better New is than Old: above 1 is better
}

// change is the fractional move from Old to New, whichever way is better.
func (d Delta) change() float64 { return d.New/d.Old - 1 }

// MetricDelta is one changed trace counter on a cell both runs traced
// (produced with `bentobench -metrics`). Metrics are informational
// only: they explain a throughput delta, they never gate.
type MetricDelta struct {
	Key      cellKey
	Counter  string
	Old, New int64
}

// Report is the outcome of comparing two record sets.
type Report struct {
	Tol          float64
	Regressions  []Delta       // beyond tolerance: fail
	CounterMoves []Delta       // two-sided quantities beyond tolerance, either way: fail
	Improvements []Delta       // beyond tolerance the other way: informational
	Drifts       []Delta       // within tolerance but not identical: informational
	Missing      []cellKey     // in baseline, absent from fresh: fail
	Added        []cellKey     // new cells and quantities: informational
	MetricDeltas []MetricDelta // changed counters on cells traced in both runs
	MetricCells  int           // cells carrying metrics on both sides
	Compared     int           // cells compared on throughput
	Quantities   int           // quantities compared
}

// Failed reports whether the gate should reject the run.
func (r Report) Failed() bool {
	return len(r.Regressions) > 0 || len(r.CounterMoves) > 0 || len(r.Missing) > 0
}

// throughput selects a cell's figure of merit: ops/sec when the cell
// counts operations, MB/s when it only moves bytes. Records track both;
// ops/sec is primary because every workload counts ops, and fixed-work
// workloads (stream, untar) express elapsed time through it inversely.
func throughput(r harness.Record) (float64, bool) {
	switch {
	case r.Ops > 0 && r.OpsPerSec > 0:
		return r.OpsPerSec, true
	case r.Bytes > 0 && r.MBps > 0:
		return r.MBps, true
	}
	return 0, false
}

// ratio is num/den, and 1 when they are equal (zero included).
func ratio(num, den float64) float64 {
	if num == den {
		return 1
	}
	return num / den
}

// file sorts one delta into the report by its Ratio. A two-sided delta
// has no better direction, so beyond tolerance either way it is a
// counter move.
func (rep *Report) file(d Delta, twoSided bool) {
	beyond := d.Ratio < 1-rep.Tol || d.Ratio > 1+rep.Tol
	switch {
	case twoSided && beyond:
		rep.CounterMoves = append(rep.CounterMoves, d)
	case d.Ratio < 1-rep.Tol:
		rep.Regressions = append(rep.Regressions, d)
	case d.Ratio > 1+rep.Tol:
		rep.Improvements = append(rep.Improvements, d)
	case d.Ratio != 1:
		// Virtual time is deterministic, so an unchanged tree
		// reproduces the baseline exactly: any sub-tolerance drift
		// is a real modeled-behaviour change that deserves a log
		// line (and a regenerated baseline if intentional), even
		// though it passes the gate.
		rep.Drifts = append(rep.Drifts, d)
	}
}

// Compare diffs fresh against baseline at the given per-cell tolerance.
func Compare(baseline, fresh []harness.Record, tol float64) Report {
	rep := Report{Tol: tol}
	newByKey := make(map[cellKey]harness.Record, len(fresh))
	for _, r := range fresh {
		newByKey[keyOf(r)] = r
	}
	seen := make(map[cellKey]bool, len(baseline))
	for _, b := range baseline {
		k := keyOf(b)
		seen[k] = true
		n, ok := newByKey[k]
		if !ok {
			rep.Missing = append(rep.Missing, k)
			continue
		}
		if len(b.Metrics) > 0 && len(n.Metrics) > 0 {
			rep.MetricCells++
			names := make([]string, 0, len(b.Metrics)+len(n.Metrics))
			seenName := make(map[string]bool, len(names))
			for name := range b.Metrics {
				seenName[name] = true
				names = append(names, name)
			}
			for name := range n.Metrics {
				if !seenName[name] {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				if b.Metrics[name] != n.Metrics[name] {
					rep.MetricDeltas = append(rep.MetricDeltas,
						MetricDelta{Key: k, Counter: name, Old: b.Metrics[name], New: n.Metrics[name]})
				}
			}
		}
		if oldT, okOld := throughput(b); okOld {
			rep.Compared++
			newT, okNew := throughput(n)
			d := Delta{Key: k, Old: oldT, New: newT}
			if okNew {
				d.Ratio = newT / oldT
			}
			rep.file(d, false)
		}
		for name, ov := range b.Quantities {
			qk := k
			qk.Quantity = name
			nv, ok := n.Quantities[name]
			if !ok {
				rep.Missing = append(rep.Missing, qk)
				continue
			}
			rep.Quantities++
			d := Delta{Key: qk, Old: float64(ov), New: float64(nv)}
			lower := harness.Quantities[name] == harness.Lower
			if lower {
				d.Ratio = ratio(d.Old, d.New)
			} else {
				d.Ratio = ratio(d.New, d.Old)
			}
			rep.file(d, !lower)
		}
		for name := range n.Quantities {
			if _, ok := b.Quantities[name]; !ok {
				rep.Added = append(rep.Added, cellKey{b.Experiment, b.Variant, b.Cell, name})
			}
		}
	}
	for _, r := range fresh {
		k := keyOf(r)
		if !seen[k] {
			rep.Added = append(rep.Added, k)
		}
	}
	sortDeltas := func(ds []Delta) {
		sort.Slice(ds, func(i, j int) bool { return ds[i].Key.String() < ds[j].Key.String() })
	}
	sortKeys := func(ks []cellKey) {
		sort.Slice(ks, func(i, j int) bool { return ks[i].String() < ks[j].String() })
	}
	sortDeltas(rep.Regressions)
	sortDeltas(rep.CounterMoves)
	sortDeltas(rep.Improvements)
	sortDeltas(rep.Drifts)
	sortKeys(rep.Missing)
	sortKeys(rep.Added)
	return rep
}

// Text renders the report for CI logs.
func (r Report) Text() string {
	out := ""
	for _, k := range r.Missing {
		out += fmt.Sprintf("MISSING    %-45s in the baseline, absent from the fresh run\n", k)
	}
	for _, d := range r.Regressions {
		out += fmt.Sprintf("REGRESSED  %-45s %.1f -> %.1f (%+.1f%%)\n",
			d.Key, d.Old, d.New, d.change()*100)
	}
	for _, d := range r.CounterMoves {
		out += fmt.Sprintf("COUNTER    %-45s %.0f -> %.0f (%+.1f%%, a count moved beyond tolerance)\n",
			d.Key, d.Old, d.New, d.change()*100)
	}
	for _, d := range r.Improvements {
		out += fmt.Sprintf("improved   %-45s %.1f -> %.1f (%+.1f%%)\n",
			d.Key, d.Old, d.New, d.change()*100)
	}
	for _, d := range r.Drifts {
		out += fmt.Sprintf("drifted    %-45s %.1f -> %.1f (%+.2f%%, within tolerance — regenerate the baseline if intentional)\n",
			d.Key, d.Old, d.New, d.change()*100)
	}
	for _, k := range r.Added {
		out += fmt.Sprintf("added      %-45s new in the fresh run (regenerate the baseline to gate it)\n", k)
	}
	verdict := "OK"
	if r.Failed() {
		verdict = "FAIL"
	}
	out += fmt.Sprintf("benchdiff: %s — %d cells and %d quantities compared, %d regressed, %d counts moved, %d missing, %d improved, %d drifted, %d added (tol %.0f%%)\n",
		verdict, r.Compared, r.Quantities, len(r.Regressions), len(r.CounterMoves), len(r.Missing), len(r.Improvements), len(r.Drifts), len(r.Added), r.Tol*100)
	if r.MetricCells > 0 {
		out += fmt.Sprintf("metrics: %d counters changed across %d traced cells (informational, never gates)\n",
			len(r.MetricDeltas), r.MetricCells)
	}
	return out
}

// Markdown renders the report as GitHub-flavored Markdown for the CI
// step summary: verdict first, then one table per section with the
// per-cell numbers — a failing gate shows exactly which cells sank
// without anyone digging through job logs.
func (r Report) Markdown() string {
	var b strings.Builder
	verdict := "✅ OK"
	if r.Failed() {
		verdict = "❌ FAIL"
	}
	fmt.Fprintf(&b, "## benchdiff: %s\n\n", verdict)
	fmt.Fprintf(&b, "%d cells and %d quantities compared at %.0f%% tolerance — %d regressed, %d counts moved, %d missing, %d improved, %d drifted, %d added\n\n",
		r.Compared, r.Quantities, r.Tol*100, len(r.Regressions), len(r.CounterMoves), len(r.Missing), len(r.Improvements), len(r.Drifts), len(r.Added))

	deltaTable := func(title string, ds []Delta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintf(&b, "### %s\n\n", title)
		b.WriteString("| cell | baseline | fresh | delta |\n|---|---:|---:|---:|\n")
		for _, d := range ds {
			fmt.Fprintf(&b, "| `%s` | %.1f | %.1f | %+.2f%% |\n", d.Key, d.Old, d.New, d.change()*100)
		}
		b.WriteByte('\n')
	}
	deltaTable("Regressions (fail)", r.Regressions)
	deltaTable("Counts moved, either way (fail)", r.CounterMoves)
	if len(r.Missing) > 0 {
		b.WriteString("### Missing cells (fail)\n\n")
		for _, k := range r.Missing {
			fmt.Fprintf(&b, "- `%s` — present in the baseline, absent from the fresh run\n", k)
		}
		b.WriteByte('\n')
	}
	deltaTable("Improvements", r.Improvements)
	deltaTable("Drift within tolerance (regenerate the baseline if intentional)", r.Drifts)
	if len(r.Added) > 0 {
		b.WriteString("### New cells (regenerate the baseline to gate them)\n\n")
		for _, k := range r.Added {
			fmt.Fprintf(&b, "- `%s`\n", k)
		}
		b.WriteByte('\n')
	}
	if r.MetricCells > 0 {
		// Informational, never gating: counter deltas from -metrics runs
		// explain *why* a cell's throughput moved (more misses, more
		// commits, more round-trips). Collapsed so the table doesn't
		// dominate the summary page.
		fmt.Fprintf(&b, "<details><summary>Trace-counter deltas (informational) — %d changed across %d traced cells</summary>\n\n",
			len(r.MetricDeltas), r.MetricCells)
		if len(r.MetricDeltas) == 0 {
			b.WriteString("No counter changed.\n")
		} else {
			b.WriteString("| cell | counter | baseline | fresh | Δ |\n|---|---|---:|---:|---:|\n")
			for _, m := range r.MetricDeltas {
				fmt.Fprintf(&b, "| `%s` | `%s` | %d | %d | %+d |\n", m.Key, m.Counter, m.Old, m.New, m.New-m.Old)
			}
		}
		b.WriteString("\n</details>\n\n")
	}
	return b.String()
}
