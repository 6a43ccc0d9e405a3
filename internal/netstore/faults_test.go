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

// The exact-timing tests below derive every expected time from the cost
// model's fields, as the client policy does: a request's nominal service
// time is NetGet or NetPut of one object (the base plus NetPer4K per
// 4KiB), its client timeout NetTimeoutMult times that, the hedge
// deadline NetHedgeMult times it, the backoff before retry n
// min(NetBackoffBase<<(n-1), NetBackoffCap) plus a jitter of at most a
// quarter of it, and the breaker cooldown cooldownCapMult times
// NetBackoffCap. Each starts at coldStore's ready time, when every
// request channel is free.

// cooldownCapMult is the breaker cooldown in NetBackoffCaps, as the
// store sets it.
const cooldownCapMult = 8

// objBytes is the size of a default object, the unit of every GET and PUT.
const objBytes = netstore.DefaultObjectBlocks * 4096

// noHedge is the default model with GET hedging disabled, for tests
// whose schedules are simpler single-attempt arithmetic.
func noHedge() *costmodel.Model {
	m := *costmodel.Default()
	m.NetHedgeMult = 0
	return &m
}

// coldStore builds a direct Store (no Device front) with a recorder
// attached and the first block of objects 0..nObj-1 made durable at
// t=0, then drops the cache cold. It returns the time the set-up flush
// completes, when every request channel is free again. With
// ErrProb/TailMult unset the setup runs on the clean path and consumes
// no fault decisions, so an outage armed afterwards sees a pristine
// decision stream.
func coldStore(t *testing.T, model *costmodel.Model, cfg netstore.Config, nObj int) (s *netstore.Store, rec *trace.Recorder, ready int64) {
	t.Helper()
	cfg.Name = "net0"
	cfg.BlockSize = 4096
	if cfg.Blocks == 0 {
		cfg.Blocks = 1024
	}
	cfg.Model = model
	s = netstore.New(cfg)
	rec = trace.New()
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
	ready, err := s.Flush(0)
	if err != nil {
		t.Fatalf("setup flush: %v", err)
	}
	s.DropCache()
	return s, rec, ready
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
			Name: "net0", BlockSize: 4096, Blocks: 256, Model: costmodel.Default(),
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
// the primary GET's nominal service time swallows it (it would fail at
// its timeout), but the hedge, issued at the hedge deadline past the
// outage, completes clean one service time later and wins. The loser's
// lane must be truncated at the winner's completion: both channels are
// free again then, so two follow-up cold GETs issued then both take one
// service time — without the refund one of them would queue behind the
// loser until its timeout.
func TestHedgeWinnerAndLaneRelease(t *testing.T) {
	m := *costmodel.Default()
	m.NetChannels = 2
	s, rec, t0 := coldStore(t, &m, netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 21},
	}, 3)
	svc := int64(m.NetGet(objBytes))
	hedgeAt := t0 + int64(m.NetHedgeMult)*svc
	s.ArmOutage(t0, t0+svc)

	buf := make([]byte, 4096)
	done, err := s.ReadBlock(t0, 0, buf)
	if err != nil {
		t.Fatalf("hedged GET: %v", err)
	}
	if done != hedgeAt+svc {
		t.Fatalf("hedged GET completed at %d, want %d (hedge issue %d + %d)", done, hedgeAt+svc, hedgeAt, svc)
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
		got, err := s.ReadBlock(done, blk, buf)
		if err != nil {
			t.Fatalf("follow-up GET %d: %v", i, err)
		}
		if got != done+svc {
			t.Fatalf("follow-up GET %d completed at %d, want %d (loser's lane not released)", i, got, done+svc)
		}
	}
}

// TestBackoffSchedule pins the retry schedule under a permanent
// blackout with hedging off. Each of the eight attempts burns the full
// timeout; the backoff before retry n is NetBackoffBase<<(n-1), capped
// at NetBackoffCap, plus a jitter of at most a quarter of it. Eight
// attempts double the backoff past the cap, so the failure time pins
// the cap too.
func TestBackoffSchedule(t *testing.T) {
	const attempts = 8
	m := noHedge()
	s, rec, t0 := coldStore(t, m, netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 9, MaxAttempts: attempts},
	}, 1)
	s.ArmOutage(t0, 1<<40)
	lo := t0 + attempts*int64(m.NetTimeoutMult)*int64(m.NetGet(objBytes))
	hi, capped := lo, false
	for n := 1; n < attempts; n++ {
		d := int64(m.NetBackoffBase) << (n - 1)
		if d > int64(m.NetBackoffCap) {
			d, capped = int64(m.NetBackoffCap), true
		}
		lo, hi = lo+d, hi+d+d/4
	}
	if !capped {
		t.Fatalf("%d attempts never double NetBackoffBase %v past NetBackoffCap %v", attempts, m.NetBackoffBase, m.NetBackoffCap)
	}

	buf := make([]byte, 4096)
	done, err := s.ReadBlock(t0, 0, buf)
	if !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("ErrExhausted does not wrap blockdev.ErrIO: %v", err)
	}
	if done < lo || done > hi {
		t.Fatalf("request failed at %d, want within [%d, %d]", done, lo, hi)
	}
	ctr := rec.Counters()
	if ctr["net_timeouts"] != attempts || ctr["net_retries"] != attempts-1 {
		t.Fatalf("timeouts=%d retries=%d, want %d/%d", ctr["net_timeouts"], ctr["net_retries"], attempts, attempts-1)
	}
	if !s.BreakerOpen() {
		t.Fatalf("breaker closed after %d consecutive failures at BreakerK=%d", attempts, netstore.DefaultBreakerK)
	}
}

// TestBreakerLifecycle walks the breaker through open, degraded-mode
// serving, a failed half-open probe that re-opens it, and a successful
// post-outage probe that closes it, with exact times throughout
// (MaxAttempts 1, BreakerK 2). Each request but the first is issued one
// service time after the event it follows; the outage ends when the
// breaker goes half-open the second time.
func TestBreakerLifecycle(t *testing.T) {
	m := noHedge()
	s, rec, t0 := coldStore(t, m, netstore.Config{
		Blocks: 128,
		Faults: netstore.FaultConfig{Seed: 5, MaxAttempts: 1, BreakerK: 2},
	}, 3)
	svc := int64(m.NetGet(objBytes))
	timeout := int64(m.NetTimeoutMult) * svc
	cooldown := cooldownCapMult * int64(m.NetBackoffCap)
	fail1 := t0 + timeout          // the first blackout GET fails
	fail2 := fail1 + svc + timeout // the second opens the breaker
	probe := fail2 + cooldown + svc
	fail3 := probe + timeout   // the half-open probe re-opens it
	outEnd := fail3 + cooldown // the breaker is half-open again
	s.ArmOutage(t0, outEnd)
	buf := make([]byte, 4096)

	// Two single-attempt failures open the breaker.
	if done, err := s.ReadBlock(t0, 0, buf); !errors.Is(err, netstore.ErrExhausted) || done != fail1 {
		t.Fatalf("first blackout GET: done=%d err=%v, want %d/ErrExhausted", done, err, fail1)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after one failure at BreakerK=2")
	}
	if done, err := s.ReadBlock(fail1+svc, 16, buf); !errors.Is(err, netstore.ErrExhausted) || done != fail2 {
		t.Fatalf("second blackout GET: done=%d err=%v, want %d/ErrExhausted", done, err, fail2)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after BreakerK failures")
	}

	// Open: a network-needing read fails fast at `now`, no attempt made.
	at := fail2 + svc
	if done, err := s.ReadBlock(at, 32, buf); !errors.Is(err, netstore.ErrDegraded) || done != at {
		t.Fatalf("degraded miss: done=%d err=%v, want %d/ErrDegraded", done, err, at)
	}
	// Open: a fresh-extent write stages in cache, and reading it back
	// hits — both are degraded-mode serves.
	if done, err := s.SubmitBlock(at+svc, 100, buf); err != nil || done != at+svc {
		t.Fatalf("degraded write: done=%d err=%v, want %d/nil", done, err, at+svc)
	}
	if done, err := s.ReadBlock(at+2*svc, 100, buf); err != nil || done != at+2*svc {
		t.Fatalf("degraded cached read: done=%d err=%v, want %d/nil", done, err, at+2*svc)
	}

	// Half-open one cooldown after the second failure; a probe then is
	// admitted, fails (still in the blackout), and re-arms the cooldown.
	if done, err := s.ReadBlock(probe, 16, buf); !errors.Is(err, netstore.ErrExhausted) || done != fail3 {
		t.Fatalf("half-open probe: done=%d err=%v, want %d/ErrExhausted", done, err, fail3)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failed probe")
	}
	if done, err := s.ReadBlock(fail3+svc, 16, buf); !errors.Is(err, netstore.ErrDegraded) || done != fail3+svc {
		t.Fatalf("re-armed fast-fail: done=%d err=%v, want %d/ErrDegraded", done, err, fail3+svc)
	}

	// After the outage lifts, the next probe succeeds and closes it.
	at = outEnd + svc
	if done, err := s.ReadBlock(at, 16, buf); err != nil || done != at+svc {
		t.Fatalf("closing probe: done=%d err=%v, want %d/nil", done, err, at+svc)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker still open after a successful probe")
	}
	at += 2 * svc
	if done, err := s.ReadBlock(at, 32, buf); err != nil || done != at+svc {
		t.Fatalf("post-recovery miss: done=%d err=%v, want %d/nil", done, err, at+svc)
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
	s, _, t0 := coldStore(t, noHedge(), netstore.Config{
		Blocks: 64, ObjectBlocks: 1, CacheObjects: 2,
		Faults: netstore.FaultConfig{Seed: 3, MaxAttempts: 1, BreakerK: 1},
	}, 1)
	s.ArmOutage(t0, 1<<40)
	buf := make([]byte, 4096)

	// One failed GET opens the K=1 breaker.
	at, err := s.ReadBlock(t0, 0, buf)
	if !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("blackout GET: %v, want ErrExhausted", err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failure at BreakerK=1")
	}
	// Two fresh-extent writes fill the 2-block degraded queue.
	for i, blk := range []int{10, 11} {
		if _, err := s.SubmitBlock(at+int64(100+50*i), blk, buf); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
	}
	// The third write is refused at the miss pre-check.
	if _, err := s.SubmitBlock(at+200, 12, buf); !errors.Is(err, netstore.ErrWriteBound) {
		t.Fatalf("over-bound fresh write: %v, want ErrWriteBound", err)
	} else if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("ErrWriteBound does not wrap blockdev.ErrIO: %v", err)
	}
	// Rewriting an already-staged block adds no staging and is allowed.
	if _, err := s.SubmitBlock(at+250, 10, buf); err != nil {
		t.Fatalf("rewrite of staged block: %v", err)
	}
	// A write-miss on a durable object is refused before its RMW GET.
	if _, err := s.SubmitBlock(at+300, 0, buf); !errors.Is(err, netstore.ErrWriteBound) {
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
	s, _, t0 := coldStore(t, noHedge(), netstore.Config{
		Blocks: 64, ObjectBlocks: 2, CacheObjects: 1,
		Faults: netstore.FaultConfig{Seed: 3, MaxAttempts: 1, BreakerK: 1},
	}, 1)
	s.ArmOutage(t0, 1<<40)
	buf := make([]byte, 4096)
	at, err := s.ReadBlock(t0, 0, buf)
	if !errors.Is(err, netstore.ErrExhausted) {
		t.Fatalf("blackout GET: %v, want ErrExhausted", err)
	}
	if !s.BreakerOpen() {
		t.Fatal("breaker closed after a failure at BreakerK=1")
	}
	// Block 10 stages in object 5; block 12 stages in object 6, whose
	// clean block 13 stays resident with it.
	for i, blk := range []int{10, 12} {
		if _, err := s.SubmitBlock(at+int64(100+50*i), blk, buf); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d, want the bound 2", n)
	}
	if _, err := s.SubmitBlock(at+200, 13, buf); !errors.Is(err, netstore.ErrWriteBound) {
		t.Fatalf("over-bound write to a resident object's clean block: %v, want ErrWriteBound", err)
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d after a refused write, want 2", n)
	}
	if _, err := s.SubmitBlock(at+250, 12, buf); err != nil {
		t.Fatalf("rewrite of the resident object's staged block: %v", err)
	}
	if n := s.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d after a rewrite, want 2", n)
	}
}

// TestFlushRidesOutOutage: flush PUTs bypass the open breaker's
// fail-fast and keep retrying through a whole blackout window, so the
// durability barrier completes as soon as the network returns. A failed
// GET opens the breaker first; the blackout then lasts twenty of the
// longest retry rounds (a timeout plus a capped backoff with its whole
// jitter), so the flush retries at least twenty times.
func TestFlushRidesOutOutage(t *testing.T) {
	const rounds = 20
	m := noHedge()
	s, rec, t0 := coldStore(t, m, netstore.Config{
		Blocks: 64,
		Faults: netstore.FaultConfig{Seed: 11, MaxAttempts: 1, BreakerK: 1},
	}, 1)
	buf := make([]byte, 4096)
	if _, err := s.SubmitBlock(t0, 16, buf); err != nil {
		t.Fatal(err)
	}
	svc := int64(m.NetPut(objBytes))
	capNS := int64(m.NetBackoffCap)
	round := int64(m.NetTimeoutMult)*svc + capNS + capNS/4
	at := t0 + int64(m.NetTimeoutMult)*int64(m.NetGet(objBytes))
	outEnd := at + rounds*round
	s.ArmOutage(t0, outEnd)
	if done, err := s.ReadBlock(t0, 0, buf); !errors.Is(err, netstore.ErrExhausted) || done != at || !s.BreakerOpen() {
		t.Fatalf("blackout GET: done=%d err=%v breaker open %v, want %d/ErrExhausted/open", done, err, s.BreakerOpen(), at)
	}

	puts := rec.Counters()["net_puts"]
	done, err := s.Flush(at)
	if err != nil {
		t.Fatalf("flush through blackout: %v", err)
	}
	// The first post-outage attempt issues within a round of the
	// outage's end; its PUT takes svc and the barrier NetFlush after it.
	lo := outEnd + svc + int64(m.NetFlush())
	if done < lo || done >= lo+round {
		t.Fatalf("flush completed at %d, want just past the outage end [%d, %d)", done, lo, lo+round)
	}
	if n := s.DirtyBlocks(); n != 0 {
		t.Fatalf("DirtyBlocks = %d after a successful flush, want 0", n)
	}
	ctr := rec.Counters()
	if ctr["net_puts"]-puts != 1 || ctr["net_retries"] < rounds {
		t.Fatalf("flush puts=%d retries=%d, want 1 put and >=%d retries", ctr["net_puts"]-puts, ctr["net_retries"], rounds)
	}
	if s.BreakerOpen() {
		t.Fatal("breaker open after the flush finally succeeded")
	}
}

// TestHedgeOnTailLatency: with a fat latency tail (TailMult 5 puts ~9%
// of attempts at 5x their service time, past the 3x hedge deadline),
// sequential cold GETs fire hedges and every read still succeeds.
func TestHedgeOnTailLatency(t *testing.T) {
	s, rec, now := coldStore(t, costmodel.Default(), netstore.Config{
		Blocks: 1024, ObjectBlocks: 1, CacheObjects: 512,
		Faults: netstore.FaultConfig{Seed: 42, TailMult: 5},
	}, 200)
	buf := make([]byte, 4096)
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
				Model: costmodel.Default(), Faults: tc.fc,
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
