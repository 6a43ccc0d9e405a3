// bentobench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bentobench                  # run every experiment at default scale
//	bentobench -exp fig4        # one experiment
//	bentobench -upgrade         # just the live-upgrade availability scenario
//	bentobench -quick           # reduced scale (seconds, not minutes)
//	bentobench -dur 200ms       # override the virtual measurement window
//	bentobench -json            # machine-readable cells on stdout (tables go to stderr)
//	bentobench -parallel 4      # host workers for cell execution (default NumCPU; 1 = sequential)
//	bentobench -hostns          # include per-cell host wall-clock in -json (not byte-stable)
//	bentobench -metrics         # per-cell trace counters in -json records (metrics map)
//	bentobench -trace traces/   # one Chrome/Perfetto trace JSON per cell (virtual timeline)
//	bentobench -backend netstore       # mount every cell on the object-store backend
//	bentobench -netlat 5ms -netbw 100  # netstore request latency / bandwidth (MB/s) overrides
//	bentobench -neterr 0.02 -nettail 4 # deterministic per-attempt fault rate / latency-tail multiplier
//	bentobench -netoutage 10ms:30ms    # full object-store blackout over a virtual-time window
//	bentobench -nethedge 3             # hedged-GET delay multiplier override
//	bentobench -noiod           # disable background I/O (read-ahead + flusher)
//	bentobench -databypass=false # re-enable data double-caching (seed behaviour)
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
	"strings"
	"time"

	"bento/internal/harness"
)

// cliFlags are the flag values validateFlags vets.
type cliFlags struct {
	parallel  int
	dur       time.Duration
	backend   string
	netlat    time.Duration
	netbw     int
	neterr    float64
	nettail   int
	netoutage string
	nethedge  int
}

// validateFlags checks the scale flags, the backend choice and the
// net-fault flag set before any cell runs: a value that would be
// silently ignored (a negative duration, latency or multiplier, a
// worker count below one), an unknown backend, or a fault flag without
// the netstore backend fails fast with a clear message instead of
// falling through or surfacing mid-matrix from the first cell that
// mounts. It returns the parsed blackout window (zero when -netoutage
// is unset).
func validateFlags(f cliFlags) (outStart, outEnd time.Duration, err error) {
	backend, neterr, netoutage := f.backend, f.neterr, f.netoutage
	switch {
	case f.parallel < 1:
		return 0, 0, fmt.Errorf("-parallel %d: want at least 1 host worker", f.parallel)
	case f.dur < 0:
		return 0, 0, fmt.Errorf("-dur %v: the measurement window cannot be negative (0 = default)", f.dur)
	case f.netlat < 0:
		return 0, 0, fmt.Errorf("-netlat %v: latency cannot be negative (0 = model default)", f.netlat)
	case f.netbw < 0:
		return 0, 0, fmt.Errorf("-netbw %d: bandwidth cannot be negative (0 = model default)", f.netbw)
	case f.nettail < 0:
		return 0, 0, fmt.Errorf("-nettail %d: the tail multiplier cannot be negative (0 = off)", f.nettail)
	case f.nethedge < 0:
		return 0, 0, fmt.Errorf("-nethedge %d: the hedge multiplier cannot be negative (0 = model default)", f.nethedge)
	}
	valid := false
	for _, b := range harness.Backends {
		if backend == b {
			valid = true
			break
		}
	}
	if !valid {
		return 0, 0, fmt.Errorf("unknown -backend %q (valid: %s)", backend, strings.Join(harness.Backends, ", "))
	}
	faulty := neterr != 0 || f.nettail != 0 || netoutage != "" || f.nethedge != 0
	if faulty && backend != harness.BackendNetstore {
		return 0, 0, fmt.Errorf("-neterr/-nettail/-netoutage/-nethedge require -backend %s (got %q)", harness.BackendNetstore, backend)
	}
	if neterr < 0 || neterr > 1 {
		return 0, 0, fmt.Errorf("-neterr %v outside [0, 1]", neterr)
	}
	if netoutage != "" {
		s, e, ok := strings.Cut(netoutage, ":")
		if !ok {
			return 0, 0, fmt.Errorf("-netoutage %q: want start:end (e.g. 10ms:30ms)", netoutage)
		}
		outStart, err = time.ParseDuration(s)
		if err != nil {
			return 0, 0, fmt.Errorf("-netoutage start: %w", err)
		}
		outEnd, err = time.ParseDuration(e)
		if err != nil {
			return 0, 0, fmt.Errorf("-netoutage end: %w", err)
		}
		if outEnd <= outStart {
			return 0, 0, fmt.Errorf("-netoutage %q: end must be after start", netoutage)
		}
	}
	return outStart, outEnd, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(harness.AllExperiments, ", ")+", or all")
	upgrade := flag.Bool("upgrade", false, "run only the live-upgrade availability scenario (shorthand for -exp upgrade)")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	dur := flag.Duration("dur", 0, "virtual measurement window per workload (0 = default)")
	jsonOut := flag.Bool("json", false, "emit machine-readable results (one JSON array) on stdout; tables move to stderr")
	parallel := flag.Int("parallel", runtime.NumCPU(), "benchmark cells to run concurrently on the host (1 = sequential; output is identical either way)")
	hostns := flag.Bool("hostns", false, "include per-cell host wall-clock (host_ns) in -json records; informational and not byte-stable across runs")
	metrics := flag.Bool("metrics", false, "attach trace counters to each cell and emit them as the record's metrics map (deterministic)")
	traceDir := flag.String("trace", "", "write one Chrome/Perfetto trace-event JSON per cell (virtual timeline, byte-stable) into this directory")
	backend := flag.String("backend", harness.BackendLocal, "storage backend under every cell: "+strings.Join(harness.Backends, " or ")+" (the netstore experiment always runs its fixed presets)")
	netlat := flag.Duration("netlat", 0, "netstore request latency override (0 = model default; ignored for -backend local)")
	netbw := flag.Int("netbw", 0, "netstore streaming bandwidth override in MB/s (0 = model default; ignored for -backend local)")
	neterr := flag.Float64("neterr", 0, "netstore deterministic per-attempt transient-failure probability (requires -backend netstore)")
	nettail := flag.Int("nettail", 0, "netstore latency-tail multiplier: ~9%% of attempts take N× and ~1%% take 4N× nominal (requires -backend netstore)")
	netoutage := flag.String("netoutage", "", "netstore blackout window as start:end virtual durations, e.g. 10ms:30ms (requires -backend netstore)")
	nethedge := flag.Int("nethedge", 0, "netstore hedged-GET delay multiplier override (requires -backend netstore)")
	netseed := flag.Int64("netseed", 0, "netstore fault-decision seed (0 = default stream)")
	noiod := flag.Bool("noiod", false, "disable the background I/O subsystem on the in-kernel variants")
	databypass := flag.Bool("databypass", true, "single-copy data caching: file contents bypass the buffer cache on the in-kernel variants (false restores the seed's double-caching)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile (runtime \"allocs\") to this file at exit")
	flag.Parse()

	outStart, outEnd, err := validateFlags(cliFlags{
		parallel: *parallel, dur: *dur, backend: *backend, netlat: *netlat, netbw: *netbw,
		neterr: *neterr, nettail: *nettail, netoutage: *netoutage, nethedge: *nethedge,
	})
	if err != nil {
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
	o.NetLat = *netlat
	o.NetBWMBps = *netbw
	o.NetErrProb = *neterr
	o.NetTailMult = *nettail
	o.NetOutageStart = outStart
	o.NetOutageEnd = outEnd
	o.NetHedgeMult = *nethedge
	o.NetFaultSeed = *netseed
	o.NoIODaemon = *noiod
	o.NoDataBypass = !*databypass
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
	if *upgrade {
		ids = []string{harness.ExpUpgrade}
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
		fmt.Fprintf(tables, "== %s (cells host time %v) ==\n%s\n",
			er.ID, time.Duration(er.CellHostNS).Round(time.Millisecond), er.Text)
	}
	fmt.Fprintf(tables, "matrix wall-clock %v (-parallel %d)\n",
		time.Since(start).Round(time.Millisecond), *parallel)
	if *jsonOut {
		if !*hostns {
			harness.StripHostNS(records)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "bentobench: encoding json: %v\n", err)
			os.Exit(1)
		}
	}
}
