package harness

import (
	"reflect"
	"testing"
	"time"
)

// determinismOpts trims the quick options so two runs of an experiment,
// or of the whole matrix, stay cheap: the point is virtual-time
// reproducibility, not scale.
func determinismOpts() Options {
	o := Quick()
	o.Duration = 30 * time.Millisecond
	o.MaxOps = 500
	return o
}

// runExp runs one experiment through RunMatrix and returns its table
// text and records.
func runExp(t testing.TB, id string, o Options) (string, []Record) {
	t.Helper()
	out, err := RunMatrix([]string{id}, o)
	if err != nil {
		t.Fatal(err)
	}
	return out[0].Text, out[0].Records
}

// requireEqual asserts every cell — single- and multi-threaded — matches
// between two runs of an experiment. Until the vclock scheduler, only
// single-threaded cells could be compared: 32-thread runs interleaved on
// the shared device queue and CPU pool in host-scheduling order. Workers
// are now admitted in (virtual time, worker id) order, one at a time, so
// the full matrix must replay bit-for-bit.
func requireEqual(t *testing.T, first, second []Record) {
	t.Helper()
	if len(first) != len(second) {
		t.Fatalf("%d records vs %d", len(first), len(second))
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("%s/%s differs between runs:\nrun1: %+v\nrun2: %+v",
				first[i].Variant, first[i].Cell, first[i], second[i])
		}
	}
}

// TestFig2Deterministic runs the Figure 2 read experiment twice and
// requires identical virtual-time results (ops, bytes, elapsed) for
// every variant's cells, 32-thread ones included. The caches, the
// background I/O daemon, and the worker scheduler are host-CPU
// machinery: none of their bookkeeping may leak host nondeterminism
// into the simulated clock.
func TestFig2Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs")
	}
	_, first := runExp(t, ExpFig2, determinismOpts())
	_, second := runExp(t, ExpFig2, determinismOpts())
	requireEqual(t, first, second)
}

// TestFig4Deterministic covers the write path's full matrix: the
// rnd-32t cells drive 32 dirtiers against the shared flusher, dirty
// budget, and device queues — the paths where host-order effects used
// to hide.
func TestFig4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs")
	}
	_, first := runExp(t, ExpFig4, determinismOpts())
	_, second := runExp(t, ExpFig4, determinismOpts())
	requireEqual(t, first, second)
}

// TestStreamDeterministic runs the streaming scenario twice and requires
// byte-identical results. The single-stream cells exercise the whole
// background pipeline — read-ahead fills, flusher passes, writer
// throttling — and the multi-stream cell adds concurrent readers whose
// read-ahead windows compete for device-queue slots under the scheduler.
func TestStreamDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs")
	}
	o := determinismOpts()
	o.StreamMB = 20 // cold enough to exercise fills, cheap enough for two runs
	_, first := runExp(t, ExpStream, o)
	_, second := runExp(t, ExpStream, o)
	requireEqual(t, first, second)
}

// TestTable4Deterministic does the same for the createfiles experiment,
// which exercises the dirty-set and write-back paths; the 32-thread
// cells interleave create+fsync traffic from every worker through the
// shared log and device queues.
func TestTable4Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiment runs")
	}
	_, first := runExp(t, ExpTable4, determinismOpts())
	_, second := runExp(t, ExpTable4, determinismOpts())
	requireEqual(t, first, second)
}
