package netstore

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/seeded"
	"bento/internal/trace"
)

// This file is the network-fault model and the client policy over it.
//
// Fault model. Every wire attempt takes one sequence number from a
// seeded decider (internal/seeded) and draws its fate from
// (seed, seq) — never from wall clock — so two runs of the same cell
// inject byte-identical faults at any -parallel. Three fault kinds
// compose: transient per-attempt errors (ErrProb), tail-latency
// inflation (TailMult; a small integer distribution puts ~1% of
// attempts at 4·TailMult× and ~9% at TailMult× the nominal service
// time, so p99 ≫ p50), and a blackout window that Store.ArmOutage
// schedules over a virtual-time interval, during which every attempt
// hangs until the client deadline.
//
// Policy. Requests time out at NetTimeoutMult× their nominal service
// time, retry under capped exponential backoff with deterministic
// jitter against a per-cell retry budget, and GETs hedge: if the
// primary attempt is still outstanding after NetHedgeMult× the nominal
// service time, a second attempt is issued and the first completion
// wins — the loser's lane is truncated at the winner's completion
// (vclock.Resource.Truncate), releasing the channel. A circuit breaker
// opens after BreakerK consecutive attempt failures: while open,
// cached/staged reads are still served (degraded mode, counted in
// net_degraded), network-needing reads fail fast with EIO, writes
// queue in cache up to the cache's capacity in staged blocks then surface
// EIO, and Flush — exempt from the fail-fast — keeps retrying until
// durable. After a cooldown the breaker goes half-open: the next
// network request is admitted as a probe whose outcome closes or
// re-opens it.

// Failure sentinels. All wrap blockdev.ErrIO so file systems and
// workloads above classify them with one errors.Is check.
var (
	// ErrDegraded reports a network-needing request refused fast while
	// the circuit breaker is open.
	ErrDegraded = fmt.Errorf("netstore: degraded mode, circuit open: %w", blockdev.ErrIO)
	// ErrExhausted reports a request that failed on every allowed
	// attempt (per-request cap or per-cell retry budget).
	ErrExhausted = fmt.Errorf("netstore: request retries exhausted: %w", blockdev.ErrIO)
	// ErrWriteBound reports a write refused because the degraded-mode
	// write queue (staged blocks) is full.
	ErrWriteBound = fmt.Errorf("netstore: degraded write queue full: %w", blockdev.ErrIO)
)

// Policy values: the exported defaults are overridable per FaultConfig
// field, the rest are fixed.
const (
	// DefaultMaxAttempts bounds wire attempts per request.
	DefaultMaxAttempts = 8
	// flushMaxAttempts bounds attempts for durability-barrier PUTs,
	// which must ride out whole blackout windows ("retry until durable
	// or power-cut"); the cap is a safety valve, not a policy.
	flushMaxAttempts = 64
	// DefaultBreakerK is how many consecutive attempt failures open the
	// circuit breaker.
	DefaultBreakerK = 4
	// cellRetryBudget is the per-cell retry allowance — generous, a
	// runaway backstop rather than a throttle: once spent, failed
	// requests stop retrying.
	cellRetryBudget = 1 << 20
	// cooldownCapMult sets the breaker cooldown as a multiple of
	// NetBackoffCap.
	cooldownCapMult = 8
)

// Decision-stream salts: one per independent decision funded by a
// sequence number.
const (
	saltErr uint64 = iota + 1
	saltTail
	saltJitter
)

// Fault-kind codes carried in the `fault` instant's second argument.
const (
	faultTransient int64 = iota + 1
	faultTimeout
	faultOutage
)

// FaultConfig arms the network-fault model. The zero value disables it
// entirely: the store books requests on the clean, allocation-free
// path, byte-identical to a build without this file.
type FaultConfig struct {
	// Seed keys the cell's fault-decision stream.
	Seed int64
	// ErrProb is the per-attempt transient-failure probability.
	ErrProb float64
	// TailMult inflates the latency tail: ~9% of attempts take
	// TailMult× and ~1% take 4·TailMult× the nominal service time.
	// Values <= 1 leave latency flat.
	TailMult int
	// MaxAttempts bounds wire attempts per request (DefaultMaxAttempts
	// if 0).
	MaxAttempts int
	// BreakerK is the consecutive-failure threshold that opens the
	// circuit breaker (DefaultBreakerK if 0).
	BreakerK int
}

// Enabled reports whether any fault source is armed.
func (fc FaultConfig) Enabled() bool {
	return fc.ErrProb > 0 || fc.TailMult > 1
}

// initFaults resolves the config into the store's policy state.
func (s *Store) initFaults(fc FaultConfig) {
	s.faults = fc
	s.faulty = fc.Enabled()
	s.dec = seeded.NewDecider(fc.Seed)
	s.errPPM = seeded.PPM(fc.ErrProb)
	s.maxAttempts = fc.MaxAttempts
	if s.maxAttempts <= 0 {
		s.maxAttempts = DefaultMaxAttempts
	}
	s.retryBudget = cellRetryBudget
	s.breakerK = fc.BreakerK
	if s.breakerK <= 0 {
		s.breakerK = DefaultBreakerK
	}
	s.degradedBound = s.cacheCap * s.objBlocks // staged blocks accepted while the breaker is open
	s.cooldown = cooldownCapMult * int64(s.model.NetBackoffCap)
	s.breakerTrack = "net:breaker"
}

// ArmOutage (re)schedules the blackout window over the absolute
// virtual-time interval [start, end) and enables the fault path if it
// was off. The netfaults outage-recovery cell arms it relative to the
// measured window's start, so setup traffic runs clean.
func (s *Store) ArmOutage(start, end int64) {
	s.outStart, s.outEnd = start, end
	if end > start {
		s.faulty = true
	}
}

// BreakerOpen reports whether the circuit breaker is currently open
// (tests and tools).
func (s *Store) BreakerOpen() bool { return s.open }

// FaultCounts reports the retries issued and the requests served in
// degraded mode (breaker open) over the Store's lifetime: the values of
// the net_retries and net_degraded trace counters, recorder or not.
func (s *Store) FaultCounts() (retries, degraded int64) { return s.retries, s.degraded }

// reqKind selects the policy profile of a request.
type reqKind uint8

const (
	reqGet      reqKind = iota // hedges; breaker-gated
	reqPut                     // no hedge; breaker-gated (RMW and eviction PUTs)
	reqFlushPut                // no hedge; bypasses the breaker, high attempt cap
)

// attemptRes is one wire attempt's outcome: the lane it booked, the
// booked interval, whether it succeeded, and the fault code of a
// failure (faultTransient/faultTimeout/faultOutage). For failures,
// done is the virtual time the failure became known (deadline or error
// arrival). Spans are emitted by the caller (emitAttempt) after hedge
// resolution, because a hedge loser's lane span must be cut at its
// cancellation point, which is unknown at booking time.
type attemptRes struct {
	ch    int
	start int64
	done  int64
	ok    bool
	code  int64
}

// attempt books one wire attempt issued at issue with nominal service
// time svc, drawing its fate from the decision stream.
func (s *Store) attempt(issue, svc, objID int64) attemptRes {
	seq := s.dec.Next()
	var timeout int64
	if s.model.NetTimeoutMult > 0 {
		timeout = svc * int64(s.model.NetTimeoutMult)
	}
	if issue >= s.outStart && issue < s.outEnd {
		// Blackout: the connection hangs until the client deadline (or
		// the outage's end when timeouts are off). The lane is held for
		// the whole hang — the connection is occupied even though no
		// bytes move.
		hang := timeout
		if hang == 0 {
			hang = s.outEnd - issue
		}
		ch, start, done := s.res.AcquireInfo(issue, hang)
		s.rec.Add(trace.CtrNetTimeouts, 1)
		return attemptRes{ch: ch, start: start, done: done, code: faultOutage}
	}
	eff := svc
	if s.faults.TailMult > 1 {
		switch r := seeded.Below(s.faults.Seed, seq, saltTail, 1000); {
		case r < 10:
			eff = svc * int64(4*s.faults.TailMult)
		case r < 100:
			eff = svc * int64(s.faults.TailMult)
		}
	}
	if timeout > 0 && eff > timeout {
		// The tail draw blew the deadline: the client gives up at the
		// timeout and the lane is released then.
		ch, start, done := s.res.AcquireInfo(issue, timeout)
		s.rec.Add(trace.CtrNetTimeouts, 1)
		return attemptRes{ch: ch, start: start, done: done, code: faultTimeout}
	}
	ch, start, done := s.res.AcquireInfo(issue, eff)
	if s.errPPM > 0 && seeded.Hit(s.faults.Seed, seq, saltErr, s.errPPM) {
		return attemptRes{ch: ch, start: start, done: done, code: faultTransient}
	}
	return attemptRes{ch: ch, start: start, done: done, ok: true}
}

// emitAttempt renders one attempt's lane span ending at end — a hedge
// loser's span is cut at its cancellation point, everyone else's at
// its own completion — plus the fault instant of a failure that
// materialized (end reached a.done) rather than being cancelled first.
func (s *Store) emitAttempt(a attemptRes, end int64, name string, objID int64) {
	s.rec.SpanAB(s.laneTracks[a.ch], trace.CatNet, name, a.start, end, objID, int64(s.objBytes))
	if a.code != 0 && end >= a.done {
		s.rec.Instant(s.laneTracks[a.ch], trace.CatNet, "fault", a.done, objID, a.code)
	}
}

// request runs the full client policy — breaker gate, attempts with
// hedging, retries with backoff — for one logical GET or PUT and
// returns its completion time.
func (s *Store) request(now, objID, svc int64, kind reqKind) (int64, error) {
	if kind != reqFlushPut && s.open {
		if now < s.halfOpenAt {
			return now, ErrDegraded
		}
		// Half-open: admit this request as the probe; its outcome
		// closes or re-opens the breaker below.
	}
	first, maxA := "net-get", s.maxAttempts
	switch kind {
	case reqPut:
		first = "net-put"
	case reqFlushPut:
		first, maxA = "net-put", flushMaxAttempts
	}
	issue, name := now, first
	for n := 1; ; n++ {
		prim := s.attempt(issue, svc, objID)
		win, hedged := prim, false
		if kind == reqGet && s.model.NetHedgeMult > 0 {
			// Hedge: if the primary is still outstanding at the hedge
			// deadline (success or failure not yet known), race a
			// second attempt and keep the earlier success.
			hedgeAt := issue + svc*int64(s.model.NetHedgeMult)
			if prim.done > hedgeAt {
				s.rec.Add(trace.CtrNetHedges, 1)
				h := s.attempt(hedgeAt, svc, objID)
				hedged = true
				switch {
				case h.ok && (!prim.ok || h.done < prim.done):
					win = h
					cut := max64(prim.start, h.done)
					s.res.Truncate(prim.ch, cut)
					s.emitAttempt(prim, min64(prim.done, cut), name, objID)
					s.emitAttempt(h, h.done, "net-hedge", objID)
				case prim.ok:
					cut := max64(h.start, prim.done)
					s.res.Truncate(h.ch, cut)
					s.emitAttempt(prim, prim.done, name, objID)
					s.emitAttempt(h, min64(h.done, cut), "net-hedge", objID)
				default:
					// Both failed: the round's failure is known when
					// the later of the two is.
					win.done = max64(prim.done, h.done)
					s.emitAttempt(prim, prim.done, name, objID)
					s.emitAttempt(h, h.done, "net-hedge", objID)
				}
			}
		}
		if !hedged {
			s.emitAttempt(prim, prim.done, name, objID)
		}
		if win.ok {
			s.noteSuccess(win.done)
			return win.done, nil
		}
		s.noteFailure(win.done)
		if n >= maxA || !s.grantRetry() {
			return win.done, ErrExhausted
		}
		s.retries++
		s.rec.Add(trace.CtrNetRetries, 1)
		issue, name = win.done+s.backoff(n), "net-retry"
	}
}

// backoff returns the delay before retry n (the n-th attempt just
// failed): capped exponential plus deterministic jitter in [0, d/4].
func (s *Store) backoff(n int) int64 {
	d, capNS := int64(s.model.NetBackoffBase), int64(s.model.NetBackoffCap)
	for i := 1; i < n && d < capNS; i++ {
		d <<= 1
	}
	if capNS > 0 && d > capNS {
		d = capNS
	}
	if d <= 0 {
		return 0
	}
	return d + int64(seeded.Below(s.faults.Seed, s.dec.Next(), saltJitter, uint64(d/4+1)))
}

// grantRetry spends one unit of the per-cell retry budget.
func (s *Store) grantRetry() bool {
	if s.retryBudget <= 0 {
		return false
	}
	s.retryBudget--
	return true
}

// noteFailure advances the breaker on a failed attempt round known at
// virtual time at.
func (s *Store) noteFailure(at int64) {
	s.consecFails++
	if s.consecFails < s.breakerK {
		return
	}
	if !s.open {
		s.rec.Instant(s.breakerTrack, trace.CatNet, "breaker-open", at, int64(s.consecFails), 0)
	}
	s.open = true
	s.halfOpenAt = at + s.cooldown
}

// noteSuccess resets the failure streak and closes an open breaker (the
// half-open probe succeeded).
func (s *Store) noteSuccess(at int64) {
	s.consecFails = 0
	if s.open {
		s.open = false
		s.rec.Instant(s.breakerTrack, trace.CatNet, "breaker-close", at, 0, 0)
	}
}
