package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"bento/internal/filebench"
)

// tinyCell is a runner-test cell: a Bento mount on a device and inode
// table small enough that mkfs and mount cost next to nothing, running
// the given workload.
func tinyCell(run func(filebench.Target) (filebench.Result, error)) CellSpec {
	o := Quick()
	o.DevBlocks = 2048
	o.NInodes = 64
	return CellSpec{Experiment: "t", Variant: "v", Mount: VariantBento, Opts: o, Run: run}
}

// TestRunCellsPreservesSpecOrder checks the runner's core contract:
// outputs land in spec order at any parallelism, regardless of
// completion order.
func TestRunCellsPreservesSpecOrder(t *testing.T) {
	const n = 50
	specs := make([]CellSpec, n)
	for i := range specs {
		specs[i] = tinyCell(func(filebench.Target) (filebench.Result, error) {
			// Reverse-staggered sleeps force completion order to differ
			// from spec order under a parallel pool.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return filebench.Result{Name: fmt.Sprintf("cell%02d", i), Ops: int64(i)}, nil
		})
	}
	for _, parallel := range []int{0, 1, 4, 64} {
		outs, err := RunCells(specs, parallel)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if len(outs) != n {
			t.Fatalf("parallel=%d: %d outputs, want %d", parallel, len(outs), n)
		}
		for i, o := range outs {
			if o.Ops != int64(i) || o.Name != fmt.Sprintf("cell%02d", i) {
				t.Fatalf("parallel=%d: out[%d] = %+v (order not preserved)", parallel, i, o)
			}
		}
	}
}

// TestRunCellsFirstErrorWinsAndStopsDispatch checks the error contract:
// among failing cells the first in spec order is reported, and no new
// cells start after a failure is observed.
func TestRunCellsFirstErrorWinsAndStopsDispatch(t *testing.T) {
	errA := errors.New("cell 1 failed")
	errB := errors.New("cell 3 failed")
	var started atomic.Int64
	cell := func(delay time.Duration, err error) CellSpec {
		return tinyCell(func(filebench.Target) (filebench.Result, error) {
			started.Add(1)
			time.Sleep(delay)
			return filebench.Result{}, err
		})
	}
	specs := []CellSpec{
		cell(2*time.Millisecond, errA), // lose the race to cell 3's error
		cell(0, nil),
		cell(0, errB),
		cell(50*time.Millisecond, nil),
	}
	if _, err := RunCells(specs, 4); !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the spec-order-first error %v", err, errA)
	}

	// One worker: the first error stops the run before later cells start.
	started.Store(0)
	if _, err := RunCells(specs, 1); !errors.Is(err, errA) {
		t.Fatalf("sequential err = %v, want %v", err, errA)
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("sequential run started %d cells after an error in cell 0, want 1", got)
	}
}

// tinyOpts shrinks the workload far enough that a full experiment at two
// parallelism levels stays cheap even under -race — this test is the
// tree's standing race coverage of concurrently executing cells, so it
// must NOT be skipped in -short.
func tinyOpts() Options {
	o := Quick()
	o.Duration = 10 * time.Millisecond
	o.MaxOps = 150
	return o
}

// TestCellRunnerParallelMatchesSequential runs Figure 2 — whose 32-thread
// cells drive the scheduler, CPU pool, caches, and background I/O — with
// cells sequential and with cells host-parallel, and requires identical
// virtual-time results. Under -race (CI runs this tree-wide) it is also
// the enforcement that concurrently running cells share no mutable state:
// any package-level leak between cells trips the detector here.
func TestCellRunnerParallelMatchesSequential(t *testing.T) {
	seq := tinyOpts()
	seq.Parallel = 1
	_, first := runExp(t, ExpFig2, seq)
	par := tinyOpts()
	par.Parallel = 4
	_, second := runExp(t, ExpFig2, par)
	requireEqual(t, first, second)
}

// TestParallelMatrixByteIdentical runs the full quick-shaped matrix
// (every experiment) twice, at -parallel=1 and -parallel=8, and requires
// byte-identical JSON: the acceptance check for the parallel cell runner.
// On a mismatch it names the differing cells. The same records pin the
// matrix's shape: their (experiment, variant, cell) keys must be
// BENCH_baseline.json's, in order, so a refactor that drops, renames or
// reorders a row fails here and not only in the CI bench-regression job.
func TestParallelMatrixByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full matrix runs")
	}
	runMatrix := func(parallel int) ([]Record, []byte) {
		t.Helper()
		o := determinismOpts()
		o.Parallel = parallel
		results, err := RunMatrix(AllExperiments, o)
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
		return recs, buf
	}
	recs, seq := runMatrix(1)
	again, par := runMatrix(8)
	if !bytes.Equal(seq, par) {
		requireEqual(t, recs, again)
		t.Fatalf("matrix JSON differs between -parallel=1 (%d bytes) and -parallel=8 (%d bytes)", len(seq), len(par))
	}

	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline []Record
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	key := func(r Record) string { return r.Experiment + "/" + r.Variant + "/" + r.Cell }
	if len(recs) != len(baseline) {
		t.Errorf("matrix has %d cells, BENCH_baseline.json has %d", len(recs), len(baseline))
	}
	for i := 0; i < len(recs) && i < len(baseline); i++ {
		if key(recs[i]) != key(baseline[i]) {
			t.Fatalf("cell %d is %s, BENCH_baseline.json has %s there", i, key(recs[i]), key(baseline[i]))
		}
	}
}
