package filebench_test

import (
	"testing"
	"time"

	"bento/internal/filebench"
	"bento/internal/harness"
	"bento/internal/netstore"
)

// outageTarget mounts Bento on the object store under the netfaults
// experiment's outage-recovery recipe (LAN latency, two attempts per
// request, a breaker that opens after two failures, a short back-off),
// and returns the PreMeasure hook that arms its blackout over
// [start+from, start+to) once setup is done, so setup runs clean.
func outageTarget(t *testing.T, from, to time.Duration) (filebench.Target, func(startNS int64)) {
	t.Helper()
	o := harness.Quick()
	o.Backend = harness.BackendNetstore
	o.Model = o.Model.WithNet(500*time.Microsecond, 320)
	o.Model.NetBackoffBase = 50 * time.Microsecond
	o.Model.NetBackoffCap = 200 * time.Microsecond
	o.Faults = netstore.FaultConfig{Seed: 104, MaxAttempts: 2, BreakerK: 2}
	tg, err := harness.NewTarget(harness.VariantBento, o)
	if err != nil {
		t.Fatal(err)
	}
	st := tg.M.Device().Backend().(*netstore.Store)
	return tg, func(startNS int64) { st.ArmOutage(startNS+int64(from), startNS+int64(to)) }
}

// streamCfg is a cold two-thread stream the blackout lands inside.
func streamCfg(tolerate bool, pre func(int64)) filebench.StreamConfig {
	return filebench.StreamConfig{Threads: 2, FileSize: 8 << 20, TolerateIO: tolerate, PreMeasure: pre}
}

// varmailCfg is a short varmail window the blackout lands inside.
func varmailCfg(tolerate bool, pre func(int64)) filebench.MacroConfig {
	return filebench.MacroConfig{Threads: 4, Files: 8, Duration: 60 * time.Millisecond, Seed: 3,
		TolerateIO: tolerate, PreMeasure: pre}
}

// TestTolerateIOCountsGoodput pins the goodput rule: under TolerateIO an
// I/O failure is counted in Errs, never in Ops, and the worker carries
// on — a stream retries the failed chunk at the same offset, so it still
// delivers every byte in exactly FileSize/128 KiB successful reads.
func TestTolerateIOCountsGoodput(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		tg, pre := outageTarget(t, 5*time.Millisecond, 20*time.Millisecond)
		cfg := streamCfg(true, pre)
		res, err := filebench.StreamRead(tg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errs == 0 {
			t.Fatalf("no failure reached the workload: %+v", res)
		}
		if want := int64(cfg.Threads) * cfg.FileSize; res.Bytes != want {
			t.Fatalf("bytes = %d, want every byte of every file (%d): %+v", res.Bytes, want, res)
		}
		if want := int64(cfg.Threads) * cfg.FileSize / (128 << 10); res.Ops != want {
			t.Fatalf("ops = %d, want the %d successful reads only: %+v", res.Ops, want, res)
		}
	})
	t.Run("varmail", func(t *testing.T) {
		tg, pre := outageTarget(t, 15*time.Millisecond, 45*time.Millisecond)
		cfg := varmailCfg(true, pre)
		res, err := filebench.Varmail(tg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errs == 0 || res.Ops == 0 {
			t.Fatalf("want failures absorbed and work done: %+v", res)
		}
		if res.Elapsed < cfg.Duration {
			t.Fatalf("elapsed %v: a worker stopped before the end of the %v window: %+v", res.Elapsed, cfg.Duration, res)
		}
	})
}

// TestWithoutTolerateIOEachWorkerStops: without TolerateIO the first I/O
// failure ends its worker, which adds exactly one to Errs.
func TestWithoutTolerateIOEachWorkerStops(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		tg, pre := outageTarget(t, 5*time.Millisecond, 20*time.Millisecond)
		cfg := streamCfg(false, pre)
		res, err := filebench.StreamRead(tg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errs != int64(cfg.Threads) {
			t.Fatalf("errs = %d, want one per worker (%d): %+v", res.Errs, cfg.Threads, res)
		}
		if res.Bytes >= int64(cfg.Threads)*cfg.FileSize {
			t.Fatalf("stopped workers delivered every byte: %+v", res)
		}
	})
	t.Run("varmail", func(t *testing.T) {
		tg, pre := outageTarget(t, 15*time.Millisecond, 45*time.Millisecond)
		cfg := varmailCfg(false, pre)
		res, err := filebench.Varmail(tg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errs != int64(cfg.Threads) {
			t.Fatalf("errs = %d, want one per worker (%d): %+v", res.Errs, cfg.Threads, res)
		}
	})
}
