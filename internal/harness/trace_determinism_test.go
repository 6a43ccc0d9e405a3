package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readTraceDir returns filename -> contents for every trace file in dir.
func readTraceDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(matches))
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(m)] = data
	}
	return out
}

func requireSameTraces(t *testing.T, first, second map[string][]byte) {
	t.Helper()
	if len(first) == 0 {
		t.Fatal("no trace files written")
	}
	if len(first) != len(second) {
		t.Fatalf("trace sets differ: %d files vs %d", len(first), len(second))
	}
	for name, a := range first {
		b, ok := second[name]
		if !ok {
			t.Fatalf("trace %s missing from second run", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("trace %s differs between runs (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}

// TestTraceCellDeterministic runs one 32-thread cell twice with tracing
// on and requires the trace files to match byte-for-byte. The recorder
// observes every layer — syscalls, caches, journal, device queues — so
// any host-order leak that the result-level determinism tests can't see
// (because it cancels out by cell end) still diverges the event stream.
func TestTraceCellDeterministic(t *testing.T) {
	o := determinismOpts()
	o.Metrics = true
	run := func() (map[string][]byte, map[string]int64) {
		o.TraceDir = t.TempDir()
		outs, err := RunCells([]CellSpec{readSpec(ExpFig2, VariantBento, o, fig23Cells[1], 4096)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return readTraceDir(t, o.TraceDir), outs[0].Metrics
	}
	traces1, metrics1 := run()
	traces2, metrics2 := run()
	requireSameTraces(t, traces1, traces2)
	if len(metrics1) == 0 {
		t.Fatal("no metrics collected")
	}
	for k, v := range metrics1 {
		if metrics2[k] != v {
			t.Errorf("metrics[%q] = %d vs %d between runs", k, v, metrics2[k])
		}
	}
}

// TestTraceParallelismInvariant runs the full Figure 2 matrix traced at
// -parallel 1 and -parallel NumCPU: host-side cell concurrency must not
// perturb a single byte of any cell's virtual timeline.
func TestTraceParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs")
	}
	o := determinismOpts()
	run := func(parallel int) map[string][]byte {
		o.Parallel = parallel
		o.TraceDir = t.TempDir()
		if _, err := RunMatrix([]string{ExpFig2}, o); err != nil {
			t.Fatal(err)
		}
		return readTraceDir(t, o.TraceDir)
	}
	requireSameTraces(t, run(1), run(runtime.NumCPU()))
}
