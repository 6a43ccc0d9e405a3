package vclock

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refResource is the scan-only Resource this package shipped before the
// horizon check: every AcquireInfo walks all channels twice, nothing is
// cached. It is the reference the property test holds Resource to.
type refResource struct {
	free       []int64
	ops        int64
	busyNS     int64
	maxBacklog int64
}

func (r *refResource) acquireInfo(now, service int64) (int, int64, int64) {
	if service < 0 {
		service = 0
	}
	best := -1
	for i := range r.free {
		if r.free[i] <= now {
			if best < 0 || r.free[i] > r.free[best] {
				best = i
			}
		}
	}
	if best < 0 {
		best = 0
		for i := 1; i < len(r.free); i++ {
			if r.free[i] < r.free[best] {
				best = i
			}
		}
	}
	start := now
	if r.free[best] > start {
		start = r.free[best]
	}
	if backlog := start - now; backlog > r.maxBacklog {
		r.maxBacklog = backlog
	}
	completion := start + service
	r.free[best] = completion
	r.ops++
	r.busyNS += service
	return best, start, completion
}

func (r *refResource) acquireSerial(now, service int64) int64 {
	if service < 0 {
		service = 0
	}
	start := now
	for _, f := range r.free {
		if f > start {
			start = f
		}
	}
	if backlog := start - now; backlog > r.maxBacklog {
		r.maxBacklog = backlog
	}
	completion := start + service
	for i := range r.free {
		r.free[i] = completion
	}
	r.ops++
	r.busyNS += service
	return completion
}

func (r *refResource) truncate(ch int, at int64) {
	if ch < 0 || ch >= len(r.free) || at >= r.free[ch] {
		return
	}
	r.busyNS -= r.free[ch] - at
	if r.busyNS < 0 {
		r.busyNS = 0
	}
	r.free[ch] = at
}

func (r *refResource) inUse(now int64) int {
	n := 0
	for _, f := range r.free {
		if f > now {
			n++
		}
	}
	return n
}

func (r *refResource) stats() ResourceStats {
	return ResourceStats{Ops: r.ops, BusyTime: time.Duration(r.busyNS), MaxBacklog: time.Duration(r.maxBacklog)}
}

func (r *refResource) reset() {
	clear(r.free)
	r.ops, r.busyNS, r.maxBacklog = 0, 0, 0
}

// TestResourceMatchesReferenceScan drives seeded random interleavings of
// every mutating call against the reference scan and demands the same
// (channel, start, completion) from each call and the same free vector,
// Stats and InUse after each — lane identity matters to Truncate and to
// traced lane tracks, so "same completion" alone would not do.
//
// Mutation check (recorded in CHANGES.md, PR 16): dropping the hi
// maintenance from Truncate, from AcquireSerial or from Reset, dropping
// the lower-index tie-break when a booking ties the horizon, and moving
// the horizon boundary one tick late (free[hi] <= now+1) each fail this
// test. Moving it one tick early (free[hi] < now) cannot: the fallback
// is the unchanged scan, so that mutant is merely slower at the tie.
func TestResourceMatchesReferenceScan(t *testing.T) {
	const callsPerConfig = 16_000 // x 4 channel counts x 2 arrival shapes = 128 000 calls
	total := 0
	for _, channels := range []int{1, 2, 8, 16} {
		for _, monotone := range []bool{true, false} {
			seed := int64(channels) * 2
			if monotone {
				seed++
			}
			rng := rand.New(rand.NewSource(seed))
			r := NewResource("x", channels)
			ref := &refResource{free: make([]int64, channels)}
			var now int64
			// Remember recent bookings so Truncate cancels a real tail, as
			// hedged-request cancellation does, not only random points.
			type booking struct {
				ch         int
				start, end int64
			}
			var recent []booking
			for call := 0; call < callsPerConfig; call++ {
				if monotone {
					// A caller that mostly keeps up with its own bookings,
					// sometimes idles past every channel, sometimes bursts
					// (several requests at one instant, equal-time ties).
					switch rng.Intn(4) {
					case 0:
					case 1:
						now += rng.Int63n(40)
					case 2:
						now += rng.Int63n(400)
					default:
						now = r.free[r.hi] + rng.Int63n(3) - 1 // land on or beside the horizon
					}
				} else {
					now = rng.Int63n(2000) - 100 // unordered, sometimes negative
				}
				service := rng.Int63n(120) - 10 // zero and negative included
				if rng.Intn(8) == 0 {
					service = 0
				}
				op := rng.Intn(100)
				switch {
				case op < 70:
					ch, st, end := r.AcquireInfo(now, service)
					rch, rst, rend := ref.acquireInfo(now, service)
					if ch != rch || st != rst || end != rend {
						t.Fatalf("ch=%d mono=%v call %d: AcquireInfo(%d,%d) = (%d,%d,%d), reference (%d,%d,%d)",
							channels, monotone, call, now, service, ch, st, end, rch, rst, rend)
					}
					recent = append(recent, booking{ch, st, end})
				case op < 80:
					end := r.Acquire(now, service)
					_, _, rend := ref.acquireInfo(now, service)
					if end != rend {
						t.Fatalf("ch=%d mono=%v call %d: Acquire(%d,%d) = %d, reference %d",
							channels, monotone, call, now, service, end, rend)
					}
				case op < 86:
					end, rend := r.AcquireSerial(now, service), ref.acquireSerial(now, service)
					if end != rend {
						t.Fatalf("ch=%d mono=%v call %d: AcquireSerial(%d,%d) = %d, reference %d",
							channels, monotone, call, now, service, end, rend)
					}
					recent = recent[:0]
				case op < 98:
					ch, at := rng.Intn(channels+2)-1, rng.Int63n(2200)-100 // out-of-range channels too
					if len(recent) > 0 && rng.Intn(3) > 0 {
						b := recent[rng.Intn(len(recent))]
						ch, at = b.ch, b.start+rng.Int63n(b.end-b.start+1)
					}
					r.Truncate(ch, at)
					ref.truncate(ch, at)
				default:
					r.Reset()
					ref.reset()
					recent = recent[:0]
					if monotone {
						now = 0
					}
				}
				if len(recent) > 8 {
					recent = recent[len(recent)-8:]
				}
				if !slices.Equal(r.free, ref.free) {
					t.Fatalf("ch=%d mono=%v call %d: free = %v, reference %v", channels, monotone, call, r.free, ref.free)
				}
				if got, want := r.Stats(), ref.stats(); got != want {
					t.Fatalf("ch=%d mono=%v call %d: Stats = %+v, reference %+v", channels, monotone, call, got, want)
				}
				for _, at := range []int64{now, now - 1, now + 50, r.free[r.hi]} {
					if got, want := r.InUse(at), ref.inUse(at); got != want {
						t.Fatalf("ch=%d mono=%v call %d: InUse(%d) = %d, reference %d", channels, monotone, call, at, got, want)
					}
				}
				// hi names the lowest index among the latest-free channels.
				for i, f := range r.free {
					if f > r.free[r.hi] || (f == r.free[r.hi] && i < r.hi) {
						t.Fatalf("ch=%d mono=%v call %d: hi=%d but free=%v", channels, monotone, call, r.hi, r.free)
					}
				}
				total++
			}
		}
	}
	if total < 100_000 {
		t.Fatalf("only %d calls driven, want >= 100000", total)
	}
}

// TestResourceHorizonHitIsTheCommonCase pins what the horizon check is
// for: a single caller that waits for each of its bookings (every
// Task.Charge of a 1-thread cell) never leaves the fast path.
func TestResourceHorizonHitIsTheCommonCase(t *testing.T) {
	r := NewResource("cpu", 8)
	var now int64
	for i := 0; i < 1000; i++ {
		if r.free[r.hi] > now {
			t.Fatalf("booking %d: horizon %d is ahead of the caller at %d", i, r.free[r.hi], now)
		}
		ch, start, end := r.AcquireInfo(now, 100)
		if ch != 0 || start != now {
			t.Fatalf("booking %d landed on channel %d at %d, want channel 0 at %d", i, ch, start, now)
		}
		now = end
	}
}

var sinkNS int64

// BenchmarkResourceAcquireIdle is the horizon hit: the caller's clock
// has caught up with every channel, so the booking is O(1).
func BenchmarkResourceAcquireIdle(b *testing.B) {
	r := NewResource("cpu", 8)
	b.ReportAllocs()
	var now int64
	for i := 0; i < b.N; i++ {
		now = r.Acquire(now, 100)
	}
	sinkNS = now
}

// BenchmarkResourceAcquireBusy keeps the caller behind the horizon (it
// never waits for its bookings), so every call takes the best-fit scan.
func BenchmarkResourceAcquireBusy(b *testing.B) {
	r := NewResource("cpu", 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkNS = r.Acquire(int64(i), 100)
	}
}

// refHi is the lowest index among the reference's latest-free channels:
// what Resource.hi must name.
func (r *refResource) refHi() int {
	hi := 0
	for i, f := range r.free {
		if f > r.free[hi] {
			hi = i
		}
	}
	return hi
}

// TestExtendEqualsOneLongerBooking: booking service and then lengthening
// it by d1, d2, … with Extend leaves the resource exactly as the
// reference scan booking service + d1 + d2 + … at once: the same
// completion, free vector, Stats (busy time and op count) and latest
// channel. Seeded random interleavings mix in plain bookings, barriers
// and truncations, and an Extend whose booking is no longer its
// channel's last — another booking landed on that channel, or a
// barrier, truncation or reset moved the horizon — must refuse and
// change nothing.
func TestExtendEqualsOneLongerBooking(t *testing.T) {
	for _, channels := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(channels) + 100))
		r := NewResource("x", channels)
		ref := &refResource{free: make([]int64, channels)}
		var now int64
		extended, refused := 0, 0
		for call := 0; call < 20_000; call++ {
			now += rng.Int63n(60)
			service := rng.Int63n(100) + 1
			switch op := rng.Intn(10); {
			case op < 6:
				// One command lengthened k times versus one longer booking.
				ch, _, end := r.AcquireInfo(now, service)
				total := service
				for k := rng.Intn(5); k > 0; k-- {
					d := rng.Int63n(5)
					var ok bool
					if end, ok = r.Extend(ch, end, d); !ok {
						t.Fatalf("ch=%d call %d: Extend of the channel's own last booking refused", channels, call)
					}
					total += d
					extended++
				}
				_, _, rend := ref.acquireInfo(now, total)
				if end != rend {
					t.Fatalf("ch=%d call %d: booked %d then extended to %d, one booking of %d ends at %d",
						channels, call, service, end, total, rend)
				}
			case op < 8:
				// A booking elsewhere, then an extension of a stale one.
				ch, _, end := r.AcquireInfo(now, service)
				ref.acquireInfo(now, service)
				r.AcquireInfo(now, service)
				ref.acquireInfo(now, service)
				if r.free[ch] != end {
					before, stats, hi := slices.Clone(r.free), r.Stats(), r.hi
					if _, ok := r.Extend(ch, end, 3); ok {
						t.Fatalf("ch=%d call %d: Extend after another booking on channel %d accepted", channels, call, ch)
					}
					if !slices.Equal(r.free, before) || r.Stats() != stats || r.hi != hi {
						t.Fatalf("ch=%d call %d: a refused Extend changed the resource", channels, call)
					}
					refused++
				}
			case op < 9:
				ch, _, end := r.AcquireInfo(now, service)
				ref.acquireInfo(now, service)
				r.AcquireSerial(now, service)
				ref.acquireSerial(now, service)
				if _, ok := r.Extend(ch, end, 3); ok {
					t.Fatalf("ch=%d call %d: Extend of a booking a barrier overtook accepted", channels, call)
				}
			default:
				ch, at := rng.Intn(channels), now+rng.Int63n(50)
				r.Truncate(ch, at)
				ref.truncate(ch, at)
			}
			if !slices.Equal(r.free, ref.free) {
				t.Fatalf("ch=%d call %d: free = %v, reference %v", channels, call, r.free, ref.free)
			}
			if got, want := r.Stats(), ref.stats(); got != want {
				t.Fatalf("ch=%d call %d: Stats = %+v, reference %+v", channels, call, got, want)
			}
			if r.hi != ref.refHi() {
				t.Fatalf("ch=%d call %d: hi = %d, reference %d (free %v)", channels, call, r.hi, ref.refHi(), r.free)
			}
		}
		if extended < 10_000 || (channels == 1 && refused < 1_000) {
			t.Fatalf("ch=%d: %d extensions and %d refusals driven", channels, extended, refused)
		}
	}
	// Out-of-range channels refuse.
	r := NewResource("x", 2)
	if _, ok := r.Extend(2, 0, 1); ok {
		t.Fatal("Extend of channel 2 of 2 accepted")
	}
	if _, ok := r.Extend(-1, 0, 1); ok {
		t.Fatal("Extend of channel -1 accepted")
	}
}

// TestPeekIsTheNextCompletion: on seeded random resources Peek books
// nothing — free times, statistics and the latest channel stay as they
// were — and returns exactly the completion the AcquireInfo that follows
// it at the same instant and service time returns.
func TestPeekIsTheNextCompletion(t *testing.T) {
	for _, channels := range []int{1, 2, 8, 16} {
		rng := rand.New(rand.NewSource(int64(channels)))
		r := NewResource("x", channels)
		var now int64
		for call := 0; call < 20_000; call++ {
			switch rng.Intn(4) {
			case 0:
			case 1:
				now += rng.Int63n(40)
			case 2:
				now = r.free[r.hi] + rng.Int63n(3) - 1 // on or beside the horizon
			default:
				now = rng.Int63n(2000) - 100 // unordered
			}
			service := rng.Int63n(120) - 10 // zero and negative included
			before, stats, hi := slices.Clone(r.free), r.Stats(), r.hi
			peek := r.Peek(now, service)
			if !slices.Equal(r.free, before) || r.Stats() != stats || r.hi != hi {
				t.Fatalf("ch=%d call %d: Peek(%d,%d) changed the resource", channels, call, now, service)
			}
			if _, _, end := r.AcquireInfo(now, service); end != peek {
				t.Fatalf("ch=%d call %d: Peek(%d,%d) = %d, AcquireInfo then completes at %d (free %v)",
					channels, call, now, service, peek, end, before)
			}
			if rng.Intn(50) == 0 {
				r.Reset()
			}
		}
	}
}
