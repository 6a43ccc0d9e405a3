// Command benchmark is the repository's performance benchmark: four
// seeded closed-loop workloads driven through all four file-system
// variants, measured on both clocks — host nanoseconds per simulated op
// (the engine) and virtual-time throughput and latency (the result) —
// with a separate traced run that splits host time by layer from three
// seams outside the simulator. See README.md in this directory.
//
//	go run ./benchmark                       every workload, every metric
//	go run ./benchmark -workload hot-read    one workload
//	go run ./benchmark -check                A/A: run twice (and at seed+1), compare
//
// The driver contract (BENCHMARK.json) calls it per workload with
// -workload W -seed N -seconds S -trace 0|1 and reads the last line of
// standard output, one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"bento/internal/harness"
)

// Repetition floors. The loop runs until the time budget is spent but
// never fewer than these, so the medians always have a sample to stand on.
const (
	minReps       = 5 // -trace 0
	minRepsTraced = 3 // -trace 1: untraced repetitions before the traced ones
)

type config struct {
	seed    int64
	seconds float64
	trace   int // 0: end-to-end only; 1: per-layer; -1: both
	scale   scale
	spans   string
	// reps, when > 0, fixes the repetition count instead of the time
	// budget (tests).
	reps int
}

func main() {
	var cfg config
	workloadFlag := flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same op lists")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "time budget of the repetition loop, per workload")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, adds the traced run; -1: both")
	flag.StringVar(&cfg.spans, "spans", "", "append the traced run's host spans (name, start, end, parent) to this file at exit")
	check := flag.Bool("check", false, "run everything twice at -seed and once at -seed+1; compare against the bounds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	cfg.scale = fullScale
	// One P: a cell runs one goroutine at any instant by the vclock
	// contract, so a second core only ever serves the garbage collector —
	// and whether a shared host has one to spare moved the alloc-heavy
	// net-stream workload by 30% between runs. On one P the collector's
	// work lands in the timed sections, whatever else the host is doing.
	runtime.GOMAXPROCS(1)

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	var err error
	if *check {
		err = runCheck(names, cfg)
	} else {
		err = runAndReport(names, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outcome is one workload's reported numbers.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

func runAndReport(names []string, cfg config) error {
	defs := metricDefs()
	var total outcome
	for _, name := range names {
		out, err := measure(name, cfg)
		if err != nil {
			return err
		}
		printMetrics(name, defs, out.metrics)
		total.attempted += out.attempted
		total.failed += out.failed
		if total.firstErr == nil {
			total.firstErr = out.firstErr
		}
		// With several workloads the final line carries the last one's
		// metrics; the driver always asks for exactly one.
		total.metrics = out.metrics
	}
	if total.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", total.firstErr)
	}
	if err := printResult(defs, total); err != nil {
		return err
	}
	if total.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or returned wrong data", total.failed, total.attempted)
	}
	return nil
}

// measure runs one workload and computes the metrics cfg.trace selects.
func measure(name string, cfg config) (*outcome, error) {
	w, err := generate(name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed=%d ops/variant=%d clients=%d oplist=%016x\n", name, cfg.seed, w.ops(), w.maxClients(), w.hash())
	res, out, err := collect(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := res.check(); err != nil {
		return nil, err
	}
	fmt.Printf("# %s repetitions=%d traced=%d\n", name, len(res.untraced), len(res.traced))
	printOrderings(name, res)

	out.metrics = map[string]float64{}
	if cfg.trace != 1 {
		out.metrics = res.endToEnd()
	}
	if cfg.trace != 0 {
		for k, v := range res.perLayer() {
			out.metrics[k] = v
		}
	}
	return out, nil
}

// collect runs the repetitions: untraced until the budget (half of it
// when a traced run follows) is spent, then traced.
func collect(w *workload, cfg config) (*result, *outcome, error) {
	data := newContent(cfg.seed)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	floor := minReps
	if cfg.trace != 0 {
		budget /= 2
		floor = minRepsTraced
	}
	if cfg.reps > 0 {
		budget, floor = 0, cfg.reps
	}
	res := &result{w: w}
	out := &outcome{}
	// Repetitions outermost, variants inside: machine drift over the run
	// lands on every variant alike.
	repeat := func(floor int, traced bool) error {
		start := time.Now()
		for rep := 0; rep < floor || time.Since(start) < budget; rep++ {
			cells := make([]*cellStat, len(harness.AllVariants))
			tracers := make([]*tracer, len(harness.AllVariants))
			for vi, v := range harness.AllVariants {
				if traced {
					tracers[vi] = newTracer(cfg.spans != "")
				}
				// Every repetition simulates the same thing (result.check
				// holds them to it), so the first one's image is the one
				// fsck needs to see; it costs as much as all other set-up.
				c, err := runCell(w, data, v, tracers[vi], rep == 0)
				if err != nil {
					return err
				}
				if traced && cfg.spans != "" {
					if err := tracers[vi].writeSpans(cfg.spans, fmt.Sprintf("%s/%s/%d", w.name, variantKeys[vi], rep)); err != nil {
						return err
					}
					tracers[vi].spans = nil
				}
				cells[vi] = c
				out.attempted += c.attempted
				out.failed += c.failed
				if out.firstErr == nil {
					out.firstErr = c.firstErr
				}
			}
			if traced {
				res.traced = append(res.traced, cells)
				res.tracers = append(res.tracers, tracers)
			} else {
				res.untraced = append(res.untraced, cells)
			}
		}
		return nil
	}
	if err := repeat(floor, false); err != nil {
		return nil, nil, err
	}
	if cfg.trace != 0 {
		if err := repeat(1, true); err != nil {
			return nil, nil, fmt.Errorf("traced: %w", err)
		}
	}
	return res, out, nil
}

// printOrderings reports the paper's relationships as notes. The
// repository holds no reference numbers from the paper, so the cost model
// is unvalidated and no error figure is given.
func printOrderings(name string, r *result) {
	tput := func(vi int) float64 {
		s := r.untraced[0][vi].sim
		return ratio(float64(s.ops), float64(s.virtualNS))
	}
	bento, ckernel, fuse := tput(0), tput(1), tput(2)
	note := func(ok bool) string {
		if ok {
			return "holds"
		}
		return "DOES NOT HOLD"
	}
	fmt.Printf("# %s model unvalidated (no paper reference numbers in the repo); paper orderings in virtual time:\n", name)
	fmt.Printf("#   bento within 2x of ckernel: %s (%.2fx)\n", note(bento >= ckernel/2 && bento <= ckernel*2), bento/ckernel)
	fmt.Printf("#   bento not slower than fuse: %s (%.2fx)\n", note(bento >= fuse), bento/fuse)
}

func printMetrics(workload string, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("%-14s %-44s %16.6g %s\n", workload, d.name, v, d.unit)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the driver's result line, the last line of output.
func printResult(defs []metricDef, o outcome) error {
	ms := map[string]jsonMetric{}
	for _, d := range defs {
		if v, ok := o.metrics[d.name]; ok {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s is %v", d.name, v)
			}
			ms[d.name] = jsonMetric{Value: v, Unit: d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// manifestJSON renders BENCHMARK.json from the metric and workload tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	man := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, n := range workloadNames {
		man.Workloads = append(man.Workloads, wl{n, workloadWhy[n]})
	}
	for _, d := range metricDefs() {
		if d.e2e {
			man.EndToEnd = append(man.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
		} else {
			man.PerLayer = append(man.PerLayer, pl{d.name, d.unit, d.better})
		}
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}

// runCheck is the A/A mode: every workload twice at the same seed and
// once at the next. Exact metrics must repeat bit for bit at one seed;
// the others are shown with their relative difference beside the bound.
func runCheck(names []string, cfg config) error {
	defs := metricDefs()
	cfg.trace = -1
	var problems []string
	for _, name := range names {
		var runs [3]*outcome
		for i := range runs {
			c := cfg
			if i == 2 {
				c.seed++
			}
			var err error
			if runs[i], err = measure(name, c); err != nil {
				return err
			}
			if runs[i].failed > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d operations failed: %v", name, runs[i].failed, runs[i].firstErr))
			}
		}
		a, b, other := runs[0].metrics, runs[1].metrics, runs[2].metrics
		fmt.Printf("%-14s %-44s %14s %14s %9s %7s %14s\n", "workload", "metric", "run 1", "run 2", "diff", "bound", "seed+1")
		for _, d := range defs {
			diff := 0.0
			if a[d.name] != b[d.name] {
				diff = math.Abs(a[d.name]-b[d.name]) / math.Max(math.Abs(a[d.name]), math.Abs(b[d.name]))
			}
			bound, verdict := "", ""
			switch {
			case d.exact && a[d.name] != b[d.name]:
				verdict = "NOT EXACT"
			case d.e2e && !d.exact:
				bound = fmt.Sprintf("%.2f", d.bound)
				worse := (d.better == "lower") == (b[d.name] > a[d.name])
				if worse && diff > d.bound {
					verdict = "OVER BOUND"
				}
			}
			if d.exact {
				bound = "exact"
			}
			fmt.Printf("%-14s %-44s %14.6g %14.6g %8.2f%% %7s %14.6g %s\n", name, d.name, a[d.name], b[d.name], 100*diff, bound, other[d.name], verdict)
			if verdict != "" {
				problems = append(problems, fmt.Sprintf("%s %s: %s (%.6g vs %.6g)", name, d.name, verdict, a[d.name], b[d.name]))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("check passed: exact metrics repeated bit for bit; host metrics within their bounds")
	return nil
}
