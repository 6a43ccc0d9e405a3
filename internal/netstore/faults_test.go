package netstore_test

import (
	"errors"
	"fmt"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/netstore"
	"bento/internal/storagetest"
	"bento/internal/trace"
)

// The exact-timing tests below all use the Fast cost model, where a
// 16-block (64KiB) object GET or PUT costs 26ns (NetGetBase 10ns +
// 1ns per 4KiB), so the client timeout is 156ns (6x), the hedge
// deadline 78ns (3x), and the breaker cooldown 800ns (8x the 100ns
// NetBackoffCap). With ObjectBlocks=1 the service time is 11ns and the
// timeout 66ns.

// fastNoHedge is the Fast model with GET hedging disabled, for tests
// whose schedules are simpler single-attempt arithmetic.
func fastNoHedge() *costmodel.Model {
	m := *costmodel.Fast()
	m.NetHedgeMult = 0
	return &m
}

// coldStore builds a direct Store (no Device front) with a recorder
// attached and the first block of objects 0..nObj-1 made durable at
// t=0, then drops the cache cold. With ErrProb/TailMult unset the
// setup runs on the clean path and consumes no fault decisions, so an
// outage armed afterwards sees a pristine decision stream.
func coldStore(t *testing.T, model *costmodel.Model, cfg netstore.Config, nObj int) (*netstore.Store, *trace.Recorder) {
	t.Helper()
	cfg.Name = "net0"
	cfg.BlockSize = 4096
	if cfg.Blocks == 0 {
		cfg.Blocks = 1024
	}
	cfg.Model = model
	s := netstore.New(cfg)
	rec := trace.New()
	s.SetRecorder(rec)
	objBlocks := cfg.ObjectBlocks
	if objBlocks <= 0 {
		objBlocks = netstore.DefaultObjectBlocks
	}
	buf := make([]byte, 4096)
	for i := 0; i < nObj; i++ {
		if _, err := s.SubmitBlock(0, i*objBlocks, buf); err != nil {
			t.Fatalf("setup write obj %d: %v", i, err)
		}
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatalf("setup flush: %v", err)
	}
	s.DropCache()
	return s, rec
}

// TestConformanceUnderFaults reruns the shared backend suite with the
// fault model armed at nonzero error and tail rates: the retry policy
// must absorb every injected fault so the data contract — including
// crash one-sidedness and time determinism — holds unchanged.
func TestConformanceUnderFaults(t *testing.T) {
	storagetest.Run(t, func(blocks int) *blockdev.Device {
		return netDev(blocks, netstore.Config{
			Faults: netstore.FaultConfig{Seed: 7, ErrProb: 0.05, TailMult: 4},
		})
	})
}

// TestFaultReplayDeterminism: two stores with the same seed fed the
// same operation sequence produce identical completion times, errors,
// and counters — faults are drawn from (seed, seq), never from
// anything environmental.
func TestFaultReplayDeterminism(t *testing.T) {
	run := func() ([]string, map[string]int64) {
		s := netstore.New(netstore.Config{
			Name: "net0", BlockSize: 4096, Blocks: 256, Model: costmodel.Fast(),
			ObjectBlocks: 4, CacheObjects: 4,
			Faults: netstore.FaultConfig{Seed: 7, ErrProb: 0.05, TailMult: 4},
		})
		rec := trace.New()
		s.SetRecorder(rec)
		buf := make([]byte, 4096)
		var trail []string
		now := int64(0)
		for i := 0; i < 300; i++ {
			blk := (i * 13) % 256
			var done int64
			var err error
			switch i % 7 {
			case 0, 1, 2, 3:
				done, err = s.SubmitBlock(now, blk, buf)
			case 4, 5:
				done, err = s.ReadBlock(now, blk, buf)
			default:
				done, err = s.Flush(now)
			}
			trail = append(trail, fmt.Sprintf("%d@%d err=%v", i, done, err))
			if done > now {
				now = done
			}
		}
		return trail, rec.Counters()
	}
	trail1, ctr1 := run()
	trail2, ctr2 := run()
	for i := range trail1 {
		if trail1[i] != trail2[i] {
			t.Fatalf("replay diverged at op %d:\n  %s\n  %s", i, trail1[i], trail2[i])
		}
	}
	for _, k := range []string{"net_retries", "net_hedges", "net_timeouts", "net_gets", "net_puts"} {
		if ctr1[k] != ctr2[k] {
			t.Fatalf("counter %s diverged: %d vs %d", k, ctr1[k], ctr2[k])
		}
	}
	if ctr1["net_retries"] == 0 {
		t.Fatal("no retries at ErrProb 0.05 over 300 ops — fault model not firing")
	}
}

// TestHedgeWinnerAndLaneRelease pins hedge-winner selection and the
// loser's lane refund with exact times. Two channels; a blackout over
// [5000, 5060) swallows the primary GET (deadline 5156) but the hedge,
// issued at the 78ns hedge deadline (5078, past the outage), completes
// clean at 5104 and wins. The loser's lane must be truncated at the
// winner's completion: both channels are free again at 5104, so two
// follow-up cold GETs issued then both finish at 5130 — without the
// refund one of them would queue behind the loser until 5156.
func TestHedgeWinnerAndLaneRelease(t *testing.T) {
	m := *costmodel.Fast()
	m.NetChannels = 2
	s, rec := coldStore(t, &m, netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 21},
	}, 3)
	s.ArmOutage(5000, 5060)

	buf := make([]byte, 4096)
	done, err := s.ReadBlock(5000, 0, buf)
	if err != nil {
		t.Fatalf("hedged GET: %v", err)
	}
	if done != 5104 {
		t.Fatalf("hedged GET completed at %d, want 5104 (hedge issue 5078 + 26)", done)
	}
	ctr := rec.Counters()
	if ctr["net_hedges"] != 1 || ctr["net_timeouts"] != 1 || ctr["net_retries"] != 0 {
		t.Fatalf("counters hedges=%d timeouts=%d retries=%d, want 1/1/0",
			ctr["net_hedges"], ctr["net_timeouts"], ctr["net_retries"])
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after a hedge-rescued request")
	}
	for i, blk := range []int{16, 32} {
		done, err := s.ReadBlock(5104, blk, buf)
		if err != nil {
			t.Fatalf("follow-up GET %d: %v", i, err)
		}
		if done != 5130 {
			t.Fatalf("follow-up GET %d completed at %d, want 5130 (loser's lane not released)", i, done)
		}
	}
}

// TestBackoffSchedule pins the retry schedule under a permanent
// blackout with hedging off and MaxAttempts 4. Each attempt burns the
// full 156ns timeout; backoff before retry n is base<<(n-1) capped,
// plus jitter in [0, d/4]: b1 in [10,12], b2 in [20,25], b3 in
// [40,50]. The request fails at 2000 + 4*156 + (b1+b2+b3), i.e. within
// [2694, 2711].
func TestBackoffSchedule(t *testing.T) {
	s, rec := coldStore(t, fastNoHedge(), netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 9, MaxAttempts: 4},
	}, 1)
	s.ArmOutage(1000, 1<<40)

	buf := make([]byte, 4096)
	done, err := s.ReadBlock(2000, 0, buf)
	if !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("ErrExhausted does not wrap blockdev.ErrIO: %v", err)
	}
	if done < 2694 || done > 2711 {
		t.Fatalf("request failed at %d, want within [2694, 2711]", done)
	}
	ctr := rec.Counters()
	if ctr["net_timeouts"] != 4 || ctr["net_retries"] != 3 {
		t.Fatalf("timeouts=%d retries=%d, want 4/3", ctr["net_timeouts"], ctr["net_retries"])
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after 4 consecutive failures at BreakerK=4")
	}
}

// TestBreakerLifecycle walks the breaker through open, degraded-mode
// serving, a failed half-open probe that re-opens it, and a successful
// post-outage probe that closes it, with exact times throughout
// (MaxAttempts 1, BreakerK 2, cooldown 800ns, outage [5000, 20000)).
func TestBreakerLifecycle(t *testing.T) {
	s, rec := coldStore(t, fastNoHedge(), netstore.Config{
		Blocks: 128,
		Faults: netstore.FaultConfig{Seed: 5, MaxAttempts: 1, BreakerK: 2},
	}, 3)
	s.ArmOutage(5000, 20000)
	buf := make([]byte, 4096)

	// Two single-attempt failures open the breaker at 5356.
	if done, err := s.ReadBlock(5000, 0, buf); !errors.Is(err, netstore.ErrExhausted) || done != 5156 {
		t.Fatalf("first blackout GET: done=%d err=%v, want 5156/ErrExhausted", done, err)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after one failure at BreakerK=2")
	}
	if done, err := s.ReadBlock(5200, 16, buf); !errors.Is(err, netstore.ErrExhausted) || done != 5356 {
		t.Fatalf("second blackout GET: done=%d err=%v, want 5356/ErrExhausted", done, err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after BreakerK failures")
	}

	// Open: a network-needing read fails fast at `now`, no attempt made.
	if done, err := s.ReadBlock(5400, 32, buf); !errors.Is(err, netstore.ErrDegraded) || done != 5400 {
		t.Fatalf("degraded miss: done=%d err=%v, want 5400/ErrDegraded", done, err)
	}
	// Open: a fresh-extent write stages in cache, and reading it back
	// hits — both are degraded-mode serves.
	if done, err := s.SubmitBlock(5500, 100, buf); err != nil || done != 5500 {
		t.Fatalf("degraded write: done=%d err=%v, want 5500/nil", done, err)
	}
	if done, err := s.ReadBlock(5600, 100, buf); err != nil || done != 5600 {
		t.Fatalf("degraded cached read: done=%d err=%v, want 5600/nil", done, err)
	}

	// Half-open at 6156; a probe at 6200 is admitted, fails (still in
	// the blackout), and re-arms the cooldown to 7156.
	if done, err := s.ReadBlock(6200, 16, buf); !errors.Is(err, netstore.ErrExhausted) || done != 6356 {
		t.Fatalf("half-open probe: done=%d err=%v, want 6356/ErrExhausted", done, err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failed probe")
	}
	if done, err := s.ReadBlock(6500, 16, buf); !errors.Is(err, netstore.ErrDegraded) || done != 6500 {
		t.Fatalf("re-armed fast-fail: done=%d err=%v, want 6500/ErrDegraded", done, err)
	}

	// After the outage lifts, the next probe succeeds and closes it.
	if done, err := s.ReadBlock(21000, 16, buf); err != nil || done != 21026 {
		t.Fatalf("closing probe: done=%d err=%v, want 21026/nil", done, err)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker still open after a successful probe")
	}
	if done, err := s.ReadBlock(21100, 32, buf); err != nil || done != 21126 {
		t.Fatalf("post-recovery miss: done=%d err=%v, want 21126/nil", done, err)
	}

	ctr := rec.Counters()
	if ctr["net_degraded"] != 2 {
		t.Fatalf("net_degraded = %d, want 2 (staged write + cached read)", ctr["net_degraded"])
	}
	if ctr["net_timeouts"] != 3 || ctr["net_retries"] != 0 {
		t.Fatalf("timeouts=%d retries=%d, want 3/0", ctr["net_timeouts"], ctr["net_retries"])
	}
}

// TestDegradedWriteBound: while the breaker is open, writes stage in
// cache up to the cache's capacity in blocks (here 2: two one-block
// objects) and then surface EIO at the write-miss pre-check, while
// rewrites of already-staged blocks stay accepted. The bound on a block
// of a resident object is TestDegradedWriteBoundResidentObject's.
func TestDegradedWriteBound(t *testing.T) {
	s, _ := coldStore(t, fastNoHedge(), netstore.Config{
		Blocks: 64, ObjectBlocks: 1, CacheObjects: 2,
		Faults: netstore.FaultConfig{Seed: 3, MaxAttempts: 1, BreakerK: 1},
	}, 1)
	s.ArmOutage(1000, 1_000_000)
	buf := make([]byte, 4096)

	// One failed GET (svc 11ns, timeout 66ns) opens the K=1 breaker.
	if _, err := s.ReadBlock(1000, 0, buf); !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("blackout GET: %v, want ErrExhausted", err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failure at BreakerK=1")
	}
	// Two fresh-extent writes fill the 2-block degraded queue.
	for i, blk := range []int{10, 11} {
		if _, err := s.SubmitBlock(int64(1100+50*i), blk, buf); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
	}
	// The third write is refused at the miss pre-check.
	if _, err := s.SubmitBlock(1200, 12, buf); !errors.Is(err, netstore.ErrWriteBound) {
		t.Fatalf("over-bound fresh write: %v, want ErrWriteBound", err)
	} else if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("ErrWriteBound does not wrap blockdev.ErrIO: %v", err)
	}
	// Rewriting an already-staged block adds no staging and is allowed.
	if _, err := s.SubmitBlock(1250, 10, buf); err != nil {
		t.Fatalf("rewrite of staged block: %v", err)
	}
	// A write-miss on a durable object is refused before its RMW GET.
	if _, err := s.SubmitBlock(1300, 0, buf); !errors.Is(err, netstore.ErrWriteBound) {
		t.Fatalf("over-bound durable write: %v, want ErrWriteBound", err)
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d at the degraded bound, want 2", n)
	}
}

// TestDegradedWriteBoundResidentObject: at the degraded bound, a write
// to a clean block of an object already in the cache is refused too,
// though it needs no GET, while a rewrite of the object's staged block
// is accepted. The bound is 2 blocks (one two-block object); the two
// staged blocks sit in two objects, because an object whose eviction PUT
// fails stays resident past the cache's capacity.
func TestDegradedWriteBoundResidentObject(t *testing.T) {
	s, _ := coldStore(t, fastNoHedge(), netstore.Config{
		Blocks: 64, ObjectBlocks: 2, CacheObjects: 1,
		Faults: netstore.FaultConfig{Seed: 3, MaxAttempts: 1, BreakerK: 1},
	}, 1)
	s.ArmOutage(1000, 1_000_000)
	buf := make([]byte, 4096)
	if _, err := s.ReadBlock(1000, 0, buf); !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("blackout GET: %v, want ErrExhausted", err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failure at BreakerK=1")
	}
	// Block 10 stages in object 5; block 12 stages in object 6, whose
	// clean block 13 stays resident with it.
	for i, blk := range []int{10, 12} {
		if _, err := s.SubmitBlock(int64(1100+50*i), blk, buf); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d, want the bound 2", n)
	}
	if _, err := s.SubmitBlock(1200, 13, buf); !errors.Is(err, netstore.ErrWriteBound) {
		t.Fatalf("over-bound write to a resident object's clean block: %v, want ErrWriteBound", err)
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d after a refused write, want 2", n)
	}
	if _, err := s.SubmitBlock(1250, 12, buf); err != nil {
		t.Fatalf("rewrite of the resident object's staged block: %v", err)
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d after a rewrite, want 2", n)
	}
}

// TestFlushRidesOutOutage: flush PUTs bypass the breaker's fail-fast
// and keep retrying through a whole blackout window, so the durability
// barrier completes as soon as the network returns.
func TestFlushRidesOutOutage(t *testing.T) {
	s, rec := coldStore(t, fastNoHedge(), netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 11, MaxAttempts: 1, BreakerK: 1},
	}, 0)
	buf := make([]byte, 4096)
	if _, err := s.SubmitBlock(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	s.ArmOutage(1000, 10000)

	done, err := s.Flush(1000)
	if err != nil {
		t.Fatalf("flush through blackout: %v", err)
	}
	// Retry rounds advance 166-281ns each (156ns timeout + capped
	// backoff), so the first post-outage attempt issues in
	// [10000, 10281) and completes 26ns later.
	if done < 10000 || done > 10310 {
		t.Fatalf("flush completed at %d, want just past the outage end [10000, 10310]", done)
	}
	if n := s.DirtyBlocks(); n != 0 {
		t.Fatalf("DirtyBlocks = %d after a successful flush, want 0", n)
	}
	ctr := rec.Counters()
	if ctr["net_puts"] != 1 || ctr["net_retries"] < 20 {
		t.Fatalf("puts=%d retries=%d, want 1 put and >=20 retries", ctr["net_puts"], ctr["net_retries"])
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after the flush finally succeeded")
	}
}

// TestHedgeOnTailLatency: with a fat latency tail (TailMult 5 puts ~9%
// of attempts at 55ns against a 33ns hedge deadline), sequential cold
// GETs fire hedges and every read still succeeds.
func TestHedgeOnTailLatency(t *testing.T) {
	s, rec := coldStore(t, costmodel.Fast(), netstore.Config{
		Blocks: 1024, ObjectBlocks: 1, CacheObjects: 512,
		Faults: netstore.FaultConfig{Seed: 42, TailMult: 5},
	}, 200)
	buf := make([]byte, 4096)
	now := int64(10000)
	for blk := 0; blk < 200; blk++ {
		done, err := s.ReadBlock(now, blk, buf)
		if err != nil {
			t.Fatalf("cold GET %d: %v", blk, err)
		}
		if done > now {
			now = done
		}
	}
	ctr := rec.Counters()
	if ctr["net_hedges"] < 5 {
		t.Fatalf("net_hedges = %d over 200 tail-heavy GETs, want >= 5", ctr["net_hedges"])
	}
}

// TestZeroAllocWarmPath pins the zero-allocation budget of the warm
// read/write path: with the fault model off the request path is
// byte-identical to the pre-fault implementation, and even with faults
// armed a cache hit consults no decision stream and allocates nothing.
func TestZeroAllocWarmPath(t *testing.T) {
	for _, tc := range []struct {
		name string
		fc   netstore.FaultConfig
	}{
		{"faults-off", netstore.FaultConfig{}},
		{"faults-armed", netstore.FaultConfig{Seed: 1, ErrProb: 0.5, TailMult: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := netstore.New(netstore.Config{
				Name: "net0", BlockSize: 4096, Blocks: 64,
				Model: costmodel.Fast(), Faults: tc.fc,
			})
			buf := make([]byte, 4096)
			if _, err := s.SubmitBlock(0, 0, buf); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(200, func() {
				if _, err := s.ReadBlock(0, 0, buf); err != nil {
					t.Fatal(err)
				}
				if _, err := s.SubmitBlock(0, 0, buf); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Fatalf("warm read/write path allocates %.1f per op, want 0", n)
			}
		})
	}
}
