package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bento/internal/core"
	"bento/internal/harness"
	"bento/internal/kernel"
)

// tiny runs every code path of the four workloads in well under a second
// per workload.
var tiny = scale{
	hotDraws: 2000, hotFiles: 4, hotFileSize: 64 << 10,
	localFile: 1 << 20, localPasses: 2,
	netFile: 1 << 20, netPasses: 1,
	mailFiles: 20, mailLoops: 30,
	devBlocks: 8192, inodes: 1024,
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		gen := func(seed int64) uint64 {
			w, err := generate(name, seed, tiny)
			if err != nil {
				t.Fatal(err)
			}
			return w.hash()
		}
		if a, b := gen(1), gen(1); a != b {
			t.Errorf("%s: seed 1 generated two op lists (%x, %x)", name, a, b)
		}
		if a, b := gen(1), gen(2); a == b {
			t.Errorf("%s: seeds 1 and 2 generated the same op list (%x)", name, a)
		}
	}
	if _, err := generate("no-such", 1, tiny); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The kernel chooses its write-back path and what drop_caches reaches by
// type assertion on the mounted file system, so the traced targets must
// show it exactly the optional interfaces harness.NewTarget's do.
func TestSeamsKeepOptionalInterfaces(t *testing.T) {
	for _, backend := range harness.Backends {
		o := (&workload{backend: backend}).options()
		for _, v := range harness.AllVariants {
			plain, err := harness.NewTarget(v, o)
			if err != nil {
				t.Fatal(err)
			}
			traced, _, err := newTracedTarget(v, o, newTracer(false))
			if err != nil {
				t.Fatal(err)
			}
			_, wantBW := plain.M.FS().(kernel.BatchWriter)
			_, gotBW := traced.M.FS().(kernel.BatchWriter)
			_, wantDrop := plain.M.FS().(kernel.BlockCacheDropper)
			_, gotDrop := traced.M.FS().(kernel.BlockCacheDropper)
			if wantBW != gotBW || wantDrop != gotDrop {
				t.Errorf("%s/%s: BatchWriter %v (want %v), BlockCacheDropper %v (want %v)", backend, v, gotBW, wantBW, gotDrop, wantDrop)
			}
		}
	}
}

type plainCoreFS struct{ core.FileSystem }

type upgradableCoreFS struct {
	core.FileSystem
	core.Upgradable
}

func TestCoreSeamKeepsUpgradable(t *testing.T) {
	tr := newTracer(false)
	if _, ok := wrapCoreFS(plainCoreFS{}, tr).(core.Upgradable); ok {
		t.Error("seam invented core.Upgradable")
	}
	if _, ok := wrapCoreFS(upgradableCoreFS{}, tr).(core.Upgradable); !ok {
		t.Error("seam dropped core.Upgradable")
	}
}

// One untraced and one traced repetition of every workload: all four
// variants, both backends. result.check is the benchmark's own assertion
// that the traced targets simulate exactly what harness.NewTarget's do.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 1, tiny)
		if err != nil {
			t.Fatal(err)
		}
		res, out, err := collect(w, config{seed: 1, trace: -1, reps: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed != 0 || out.attempted < 8*w.ops() {
			t.Errorf("%s: %d of %d operations failed: %v", name, out.failed, out.attempted, out.firstErr)
		}
		if err := res.check(); err != nil {
			t.Error(err)
		}
		for vi, v := range variantKeys {
			tr := res.tracers[0][vi]
			var self int64
			for _, ns := range tr.selfNS {
				self += ns
			}
			if self != tr.totalNS || self == 0 {
				t.Errorf("%s/%s: seam self times sum to %d, S1 total is %d", name, v, self, tr.totalNS)
			}
			if len(tr.stack) != 0 {
				t.Errorf("%s/%s: %d spans left open", name, v, len(tr.stack))
			}
		}
		m := res.perLayer()
		for _, d := range metricDefs() {
			if _, ok := m[d.name]; !ok && !d.e2e {
				t.Errorf("%s: per-layer metric %s not reported", name, d.name)
			}
		}
		for _, v := range variantKeys {
			sum := 0.0
			for _, cat := range shareCats {
				sum += m["sim.share."+cat+"."+v]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s/%s: exclusive-time shares sum to %v", name, v, sum)
			}
		}
		if name == "hot-read" && (m["backend.calls_per_op.bento"] != 0 || m["kernel.page_hit_ratio"] != 1) {
			t.Errorf("hot-read reached the backend (%v calls/op) or missed the page cache (hit ratio %v)",
				m["backend.calls_per_op.bento"], m["kernel.page_hit_ratio"])
		}
		if name == "net-stream" && m["netstore.gets_per_kop"] == 0 {
			t.Error("net-stream issued no GET")
		}
		e := res.endToEnd()
		for _, d := range metricDefs() {
			if d.e2e && !(e[d.name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v", name, d.name, e[d.name])
			}
		}
	}
}

func TestWrongContentsCountAsFailures(t *testing.T) {
	w, err := generate("mail-fsync", 1, tiny)
	if err != nil {
		t.Fatal(err)
	}
	w.final[0].size++ // expect a byte the op lists never wrote
	st, err := runCell(w, newContent(1), harness.VariantBento, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 1 || st.firstErr == nil {
		t.Errorf("failed = %d (%v), want the one wrong file", st.failed, st.firstErr)
	}

	// A reader given other contents than the writer's must notice on
	// the spot check inside the loop.
	w, _ = generate("local-stream", 1, tiny)
	c := &cell{w: w, data: newContent(1), st: &cellStat{}}
	if c.tg, err = harness.NewTarget(harness.VariantExt4, w.options()); err != nil {
		t.Fatal(err)
	}
	c.st.lat = make([]int64, 0, w.ops())
	at := c.runPhase(0, &w.phases[0], 0)
	c.data = newContent(2)
	c.runPhase(1, &w.phases[1], at)
	if reads := w.phases[1].clients[0]; c.st.failed < 4*(len(reads)-2) {
		t.Errorf("only %d reads of foreign contents failed", c.st.failed)
	}
}

func TestSpansFile(t *testing.T) {
	w, _ := generate("mail-fsync", 1, tiny)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if _, _, err := collect(w, config{seed: 1, trace: 1, reps: 1, spans: path}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var s struct {
			ID, Parent  int
			Layer, Name string
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if s.Parent >= s.ID || s.Name == "" || s.Layer == "" {
			t.Fatalf("line %d: malformed span %s", n, sc.Text())
		}
	}
	if n < 4*w.ops() {
		t.Errorf("%d spans for %d ops on 4 variants", n, w.ops())
	}
}

func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	for _, n := range workloadNames {
		if why := workloadWhy[n]; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters", n, len(why))
		}
	}
}

func TestSpreadStatistics(t *testing.T) {
	v := []float64{7, 1, 9, 3, 10, 5, 2, 8, 4, 6}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrRatio(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrRatio = %v, want 1", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile([]int64{1, 2, 3, 4}, 99); got != 4 {
		t.Errorf("p99 of 4 samples = %d", got)
	}
}
