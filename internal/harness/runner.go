package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"bento/internal/filebench"
	"bento/internal/trace"
)

// StartProfiles begins host-side pprof capture for a benchmark run. If
// cpuPath is non-empty, CPU profiling starts immediately and is written
// there. The returned stop function finishes the CPU profile and, if
// memPath is non-empty, writes the runtime "allocs" profile (allocation
// sites since process start — the view the zero-allocation work is
// tuned against) after a GC cycle settles live-heap accounting.
// Profiling observes the host only; virtual-time results are unaffected.
func StartProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stop := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return err
			}
		}
		return nil
	}
	return stop, nil
}

// CellSpec is one benchmark cell of an experiment's declarative plan, as
// data the runner acts on: which variant to mount under which options,
// and the workload to run on the mounted target. A cell builds its own
// kernel, device, and clocks and shares no mutable state with any other
// cell. That isolation is what makes cell-level host parallelism
// deterministic by construction: cells may execute in any order, on any
// number of host workers, and every virtual-time result is unchanged —
// only the assembly order (spec order) is ever observable in the output.
type CellSpec struct {
	Experiment string // figure/table id ("fig2", "stream")
	Variant    string // row label ("Bento", "FUSE", "Bento-nobypass", ...)
	Mount      string // the variant NewTarget mounts for the cell under Opts
	Opts       Options
	// Run executes the workload on the mounted target and returns the
	// cell's one record; its name names the cell's trace file.
	Run func(tg filebench.Target) (filebench.Result, error)
}

// run executes one cell. This is the one place the experiments mount a
// target: NewTarget, the workload, the experiment/row error prefix, and
// the cell's observability outputs.
func (s CellSpec) run() (filebench.Result, error) {
	tg, err := NewTarget(s.Mount, s.Opts)
	if err != nil {
		return filebench.Result{}, fmt.Errorf("%s %s: %w", s.Experiment, s.Variant, err)
	}
	r, err := s.Run(tg)
	if err != nil {
		return filebench.Result{}, fmt.Errorf("%s %s: %w", s.Experiment, s.Variant, err)
	}
	if err := finishCell(tg, &r, s); err != nil {
		return filebench.Result{}, err
	}
	return r, nil
}

// finishCell attaches the cell's observability outputs to its measured
// result: the counter snapshot when Opts.Metrics, and the per-cell Chrome
// trace file when Opts.TraceDir. Untraced runs pass straight through.
func finishCell(tg filebench.Target, r *filebench.Result, s CellSpec) error {
	rec := tg.K.Recorder()
	if rec == nil {
		return nil
	}
	if s.Opts.Metrics {
		r.Metrics = rec.Counters()
	}
	if s.Opts.TraceDir != "" {
		path := filepath.Join(s.Opts.TraceDir, fmt.Sprintf("%s_%s_%s.trace.json", s.Experiment, s.Variant, r.Name))
		if err := rec.WriteFile(path, trace.Meta{Experiment: s.Experiment, Variant: s.Variant, Cell: r.Name}); err != nil {
			return fmt.Errorf("%s %s: writing trace: %w", s.Experiment, s.Variant, err)
		}
	}
	return nil
}

// RunCells executes specs on up to parallel host workers (parallel <= 0
// means runtime.NumCPU()) and returns each spec's result in spec
// order regardless of completion order. On error the first failing cell
// in spec order wins (among cells that had been claimed); no cell after
// the failed one is dispatched once it has failed.
func RunCells(specs []CellSpec, parallel int) ([]filebench.Result, error) {
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	outs := make([]filebench.Result, len(specs))
	var (
		next   atomic.Int64 // index of the next spec to claim
		failed atomic.Bool  // stop dispatching new cells after any error
		wg     sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
		firstIdx = len(specs)
	)
	// failedIdx is the spec index of the first failure so far. A cell
	// claimed below it still runs even when the failure lands between
	// the claim and this check: it may fail first in spec order.
	failedIdx := func() int {
		errMu.Lock()
		defer errMu.Unlock()
		return firstIdx
	}
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) || failed.Load() && i > failedIdx() {
					return
				}
				r, err := specs[i].run()
				if err != nil {
					errMu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				outs[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// groupByVariant reassembles executed cells into the per-row slices the
// render functions and record emitters consume. Spec order is row-major
// within each experiment's historical loop structure, so appending in
// spec order reproduces exactly the ordering the inline nested loops used
// to build.
func groupByVariant(specs []CellSpec, outs []filebench.Result) map[string][]filebench.Result {
	data := make(map[string][]filebench.Result)
	for i, s := range specs {
		data[s.Variant] = append(data[s.Variant], outs[i])
	}
	return data
}

// ExperimentResult is one experiment's assembled output from RunMatrix.
type ExperimentResult struct {
	ID      string
	Text    string   // rendered table(s)
	Records []Record // machine-readable cells in deterministic order
}

// RunMatrix executes several experiments' cells on one shared host-worker
// pool (o.Parallel wide) and assembles each experiment's text and records
// in spec order, so the output is byte-identical at any parallelism.
// Flattening the specs across experiments means the pool never drains at
// an experiment boundary — the full matrix keeps every host core busy to
// the end.
func RunMatrix(ids []string, o Options) ([]ExperimentResult, error) {
	type entry struct {
		id     string
		p      *plan
		static string
		lo, hi int
	}
	entries := make([]entry, 0, len(ids))
	var flat []CellSpec
	for _, id := range ids {
		p, static, err := planFor(id, o)
		if err != nil {
			return nil, err
		}
		e := entry{id: id, p: p, static: static, lo: len(flat)}
		if p != nil {
			flat = append(flat, p.specs...)
		}
		e.hi = len(flat)
		entries = append(entries, e)
	}
	outs, err := RunCells(flat, o.Parallel)
	if err != nil {
		return nil, err
	}
	results := make([]ExperimentResult, 0, len(entries))
	for _, e := range entries {
		if e.p == nil {
			results = append(results, ExperimentResult{ID: e.id, Text: e.static})
			continue
		}
		data := groupByVariant(e.p.specs, outs[e.lo:e.hi])
		er := ExperimentResult{ID: e.id, Text: e.p.render(data)}
		for _, v := range e.p.rows {
			for _, r := range data[v] {
				er.Records = append(er.Records, Record{
					Experiment: e.id,
					Variant:    v,
					Cell:       r.Name,
					Ops:        r.Ops,
					Bytes:      r.Bytes,
					ElapsedNS:  int64(r.Elapsed),
					OpsPerSec:  r.OpsPerSec(),
					MBps:       r.MBps(),
					Errs:       r.Errs,
					Metrics:    r.Metrics,
					Quantities: r.Quantities,
				})
			}
		}
		results = append(results, er)
	}
	return results, nil
}
