// bentobench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bentobench                  # run every experiment at default scale
//	bentobench -exp fig4        # one experiment
//	bentobench -quick           # reduced scale (seconds, not minutes)
//	bentobench -dur 200ms       # override the virtual measurement window
//	bentobench -json            # machine-readable cells on stdout (tables go to stderr)
//	bentobench -parallel 4      # host workers for cell execution (default NumCPU; 1 = sequential)
//	bentobench -metrics         # per-cell trace counters in -json records (metrics map)
//	bentobench -trace traces/   # one Chrome/Perfetto trace JSON per cell (virtual timeline)
//	bentobench -backend netstore       # mount every cell on the object-store backend
//	bentobench -netlat 5ms -netbw 100  # netstore request latency / bandwidth (MB/s), with -backend netstore
//	bentobench -neterr 0.02 -nettail 4 # deterministic per-attempt fault rate / latency-tail multiplier, likewise
//	bentobench -cpuprofile cpu.pb.gz   # pprof CPU profile of the cell matrix
//	bentobench -memprofile mem.pb.gz   # pprof allocation profile at exit
//
// Cells of every selected experiment run on one shared host-worker pool;
// results are assembled in plan order, so the -json output is
// byte-identical at any -parallel setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bento/internal/harness"
	"bento/internal/netstore"
)

// cliFlags are the flag values validateFlags vets.
type cliFlags struct {
	exp      string
	parallel int
	dur      time.Duration
	backend  string
	netlat   time.Duration
	netbw    int
	neterr   float64
	nettail  int
}

// validateFlags checks the experiment selection, the scale flags, the
// backend choice and the net flag set before any cell runs: a value that
// would be silently ignored (a negative duration, latency or multiplier,
// a worker count below one), an unknown
// backend, or a net flag without the netstore backend fails fast with a
// clear message instead of falling through or surfacing mid-matrix from
// the first cell that mounts.
func validateFlags(f cliFlags) error {
	switch {
	case f.parallel < 1:
		return fmt.Errorf("-parallel %d: want at least 1 host worker", f.parallel)
	case f.dur < 0:
		return fmt.Errorf("-dur %v: the measurement window cannot be negative (0 = default)", f.dur)
	case f.netlat < 0:
		return fmt.Errorf("-netlat %v: latency cannot be negative (0 = model default)", f.netlat)
	case f.netbw < 0:
		return fmt.Errorf("-netbw %d: bandwidth cannot be negative (0 = model default)", f.netbw)
	case f.nettail < 0:
		return fmt.Errorf("-nettail %d: the tail multiplier cannot be negative (0 = off)", f.nettail)
	case f.neterr < 0 || f.neterr > 1:
		return fmt.Errorf("-neterr %v outside [0, 1]", f.neterr)
	}
	if !slices.Contains(harness.Backends, f.backend) {
		return fmt.Errorf("unknown -backend %q (valid: %s)", f.backend, strings.Join(harness.Backends, ", "))
	}
	net := f.netlat != 0 || f.netbw != 0 || f.neterr != 0 || f.nettail != 0
	if net && f.backend != harness.BackendNetstore {
		return fmt.Errorf("-netlat/-netbw/-neterr/-nettail require -backend %s (got %q)", harness.BackendNetstore, f.backend)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(harness.AllExperiments, ", ")+", or all")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	dur := flag.Duration("dur", 0, "virtual measurement window per workload (0 = default)")
	jsonOut := flag.Bool("json", false, "emit machine-readable results (one JSON array) on stdout; tables move to stderr")
	parallel := flag.Int("parallel", runtime.NumCPU(), "benchmark cells to run concurrently on the host (1 = sequential; output is identical either way)")
	metrics := flag.Bool("metrics", false, "attach trace counters to each cell and emit them as the record's metrics map (deterministic)")
	traceDir := flag.String("trace", "", "write one Chrome/Perfetto trace-event JSON per cell (virtual timeline, byte-stable) into this directory")
	backend := flag.String("backend", harness.BackendLocal, "storage backend under every cell: "+strings.Join(harness.Backends, " or ")+" (the netstore experiment always runs its fixed presets)")
	netlat := flag.Duration("netlat", 0, "netstore request latency override (0 = model default; requires -backend netstore)")
	netbw := flag.Int("netbw", 0, "netstore streaming bandwidth override in MB/s (0 = model default; requires -backend netstore)")
	neterr := flag.Float64("neterr", 0, "netstore deterministic per-attempt transient-failure probability (requires -backend netstore)")
	nettail := flag.Int("nettail", 0, "netstore latency-tail multiplier: ~9%% of attempts take N× and ~1%% take 4N× nominal (requires -backend netstore)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile (runtime \"allocs\") to this file at exit")
	flag.Parse()

	if err := validateFlags(cliFlags{
		exp: *exp, parallel: *parallel, dur: *dur, backend: *backend,
		netlat: *netlat, netbw: *netbw, neterr: *neterr, nettail: *nettail,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "bentobench: %v\n", err)
		os.Exit(2)
	}

	stopProfiles, err := harness.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bentobench: profiling: %v\n", err)
		os.Exit(1)
	}

	o := harness.Defaults()
	if *quick {
		o = harness.Quick()
	}
	if *dur > 0 {
		o.Duration = *dur
	}
	o.Parallel = *parallel
	o.Backend = *backend
	o.Model = o.Model.WithNet(*netlat, *netbw)
	o.Faults = netstore.FaultConfig{ErrProb: *neterr, TailMult: *nettail}
	o.Metrics = *metrics
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bentobench: -trace: %v\n", err)
			os.Exit(1)
		}
		o.TraceDir = *traceDir
	}

	tables := os.Stdout
	if *jsonOut {
		tables = os.Stderr
	}

	ids := harness.AllExperiments
	if *exp != "all" {
		ids = []string{*exp}
	}
	start := time.Now()
	results, err := harness.RunMatrix(ids, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bentobench: %v\n", err)
		os.Exit(1)
	}
	// Close profiles here so the CPU profile covers the cell matrix, not
	// the table/JSON assembly below.
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "bentobench: profiling: %v\n", err)
		os.Exit(1)
	}
	records := []harness.Record{} // non-nil: -json always prints an array
	for _, er := range results {
		records = append(records, er.Records...)
		fmt.Fprintf(tables, "== %s ==\n%s\n", er.ID, er.Text)
	}
	fmt.Fprintf(tables, "matrix wall-clock %v (-parallel %d)\n",
		time.Since(start).Round(time.Millisecond), *parallel)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "bentobench: encoding json: %v\n", err)
			os.Exit(1)
		}
	}
}
