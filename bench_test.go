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
	"testing"

	"bento/internal/filebench"
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

// reportCells publishes each variant's primary metric for a run.
func reportCells(b *testing.B, data map[string][]filebench.Result, variants []string, metric string) {
	b.Helper()
	for _, v := range variants {
		for _, r := range data[v] {
			switch metric {
			case "ops":
				b.ReportMetric(r.OpsPerSec(), v+"/"+r.Name+"_vops/s")
			case "mbps":
				b.ReportMetric(r.MBps(), v+"/"+r.Name+"_vMB/s")
			case "sec":
				b.ReportMetric(r.Elapsed.Seconds(), v+"/"+r.Name+"_vsec")
			}
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
		_, data, err := harness.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkFig3ReadLarge regenerates Figure 3 (32K–1024K reads, MBps).
func BenchmarkFig3ReadLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.XV6Variants, "mbps")
		}
	}
}

// BenchmarkFig4Write regenerates Figure 4 (writes, MBps).
func BenchmarkFig4Write(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.XV6Variants, "mbps")
		}
	}
}

// BenchmarkTable4Create regenerates Table 4 (create ops/s).
func BenchmarkTable4Create(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkTable5Delete regenerates Table 5 (delete ops/s).
func BenchmarkTable5Delete(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Table5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.XV6Variants, "ops")
		}
	}
}

// BenchmarkStream runs the streaming scenario (cold sequential
// read/write pass, MBps) across all four variants — the workload where
// the in-kernel variants' read-ahead and background flusher show up and
// the FUSE baseline, which has neither, does not.
func BenchmarkStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Stream(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCells(b, data, harness.AllVariants, "mbps")
		}
	}
}

// BenchmarkTable6Macro regenerates Table 6 (varmail, fileserver, untar)
// across all four variants including ext4.
func BenchmarkTable6Macro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, data, err := harness.Table6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, v := range harness.AllVariants {
				rs := data[v]
				b.ReportMetric(rs[0].OpsPerSec(), v+"/varmail_vops/s")
				b.ReportMetric(rs[1].OpsPerSec(), v+"/fileserver_vops/s")
				b.ReportMetric(rs[2].Elapsed.Seconds(), v+"/untar_vsec")
			}
		}
	}
}
