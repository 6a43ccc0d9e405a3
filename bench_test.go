// Package bento's top-level benchmarks regenerate every table and figure
// of the paper's evaluation through the harness, one testing.B benchmark
// per artifact. The figures of merit are virtual-time throughputs printed
// as custom metrics (vops/s, vMB/s, vsec) — b.N loops only repeat the
// measurement.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Full-scale runs for docs/experiments.md use cmd/bentobench instead.
package bento

import (
	"slices"
	"testing"

	"bento/internal/harness"
)

// benchOpts uses reduced scale so `go test -bench=.` completes in a few
// minutes; cmd/bentobench runs the full-scale version. Parallel is left
// at its default (runtime.NumCPU()): each experiment's cells execute on
// a host-worker pool, which shortens the wall-clock of a -bench run
// without changing any reported virtual-time metric (see
// harness.CellSpec — cells are isolated simulations, so host
// parallelism is outside the determinism contract).
func benchOpts() harness.Options { return harness.Quick() }

// runExp runs one experiment through harness.RunMatrix and returns its
// records: variants in row order, cells in run order.
func runExp(b *testing.B, id string) []harness.Record {
	b.Helper()
	out, err := harness.RunMatrix([]string{id}, benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return out[0].Records
}

// reportCells publishes each listed variant's primary metric for a run.
func reportCells(b *testing.B, recs []harness.Record, variants []string, metric string) {
	b.Helper()
	for _, r := range recs {
		if !slices.Contains(variants, r.Variant) {
			continue
		}
		switch metric {
		case "ops":
			b.ReportMetric(r.OpsPerSec, r.Variant+"/"+r.Cell+"_vops/s")
		case "mbps":
			b.ReportMetric(r.MBps, r.Variant+"/"+r.Cell+"_vMB/s")
		}
	}
}

// BenchmarkTable1BugAnalysis regenerates Table 1 (dataset + derived
// statistics; the work is the analysis itself).
func BenchmarkTable1BugAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.Table1Text(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Comparison regenerates Table 2.
func BenchmarkTable2Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := harness.Table2Text(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2Read4K regenerates Figure 2 (4 KB reads, ops/s).
func BenchmarkFig2Read4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpFig2)
		if i == b.N-1 {
			reportCells(b, recs, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkFig3ReadLarge regenerates Figure 3 (32K–1024K reads, MBps).
func BenchmarkFig3ReadLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpFig3)
		if i == b.N-1 {
			reportCells(b, recs, harness.XV6Variants, "mbps")
		}
	}
}

// BenchmarkFig4Write regenerates Figure 4 (writes, MBps).
func BenchmarkFig4Write(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpFig4)
		if i == b.N-1 {
			reportCells(b, recs, harness.XV6Variants, "mbps")
		}
	}
}

// BenchmarkTable4Create regenerates Table 4 (create ops/s).
func BenchmarkTable4Create(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpTable4)
		if i == b.N-1 {
			reportCells(b, recs, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkTable5Delete regenerates Table 5 (delete ops/s).
func BenchmarkTable5Delete(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpTable5)
		if i == b.N-1 {
			reportCells(b, recs, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkStream runs the streaming scenario (cold sequential
// read/write pass, MBps) across all four variants — the workload where
// the in-kernel variants' read-ahead and background flusher show up and
// the FUSE baseline, which has neither, does not.
func BenchmarkStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpStream)
		if i == b.N-1 {
			reportCells(b, recs, harness.AllVariants, "mbps")
		}
	}
}

// BenchmarkTable6Macro regenerates Table 6 (varmail, fileserver, untar)
// across all four variants including ext4.
func BenchmarkTable6Macro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := runExp(b, harness.ExpTable6)
		if i == b.N-1 {
			// Each variant's row is [varmail, fileserver, untar].
			for j := 0; j+2 < len(recs); j += 3 {
				v := recs[j].Variant
				b.ReportMetric(recs[j].OpsPerSec, v+"/varmail_vops/s")
				b.ReportMetric(recs[j+1].OpsPerSec, v+"/fileserver_vops/s")
				b.ReportMetric(float64(recs[j+2].ElapsedNS)/1e9, v+"/untar_vsec")
			}
		}
	}
}
