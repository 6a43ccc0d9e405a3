// Package seeded is the shared decision core for deterministic fault
// injection. Every layer that injects faults — blockdev.Device's
// per-block error tables and netstore's network-fault model — draws its
// decisions from here so that "did this operation fail, and how
// slowly?" is always a pure function of (seed, sequence number), never
// of wall clock or map iteration order.
//
// The package depends on nothing, so blockdev and netstore both import
// it. (internal/buginject, the §2.1 bug-class study, is unrelated: it
// plants bugs in file-system code rather than faults in the storage
// below it.)
package seeded

// Rand64 returns the uniform 64-bit draw for step seq of the stream
// identified by (seed, salt). It is a pure function: equal inputs give
// equal outputs on every platform. Distinct salts give independent
// streams off the same (seed, seq) pair, so one sequence number can
// fund several decisions (error? tail? jitter?) without correlation.
//
// The mix is splitmix64 over the xor-folded inputs: cheap, stateless,
// and passes the avalanche bar that matters here (flipping any input
// bit flips ~half the output bits).
func Rand64(seed, seq int64, salt uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(seq)*0xBF58476D1CE4E5B9 ^ salt*0x94D049BB133111EB
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Below returns Rand64 reduced to [0, n). n must be positive.
func Below(seed, seq int64, salt uint64, n uint64) uint64 {
	return Rand64(seed, seq, salt) % n
}

// PPM converts a probability in [0, 1] to integer parts-per-million,
// the grain all Hit decisions are made at. Using a fixed integer grain
// keeps decisions bit-identical across platforms — no float comparison
// ever reaches the decision point.
func PPM(prob float64) uint32 {
	if prob <= 0 {
		return 0
	}
	if prob >= 1 {
		return 1_000_000
	}
	return uint32(prob*1_000_000 + 0.5)
}

// Hit reports whether step seq of stream (seed, salt) fires an event
// of probability ppm/1e6.
func Hit(seed, seq int64, salt uint64, ppm uint32) bool {
	return ppm > 0 && Below(seed, seq, salt, 1_000_000) < uint64(ppm)
}

// Decider allocates monotone sequence numbers against a fixed seed.
// Callers take one sequence number per injectable event (Next) and
// then draw as many salted decisions off it as they need. The counter
// only ever moves forward — resets, crashes, and cache drops must NOT
// rewind it, or replayed decisions would repeat.
//
// The zero Decider is ready to use (seed 0, first seq 0). It is not
// safe for concurrent use; callers serialize behind their own locks
// (blockdev.Device's mutex already does).
type Decider struct {
	seed int64
	seq  int64
}

// NewDecider returns a Decider over the given seed.
func NewDecider(seed int64) Decider { return Decider{seed: seed} }

// Seed returns the decider's seed.
func (d *Decider) Seed() int64 { return d.seed }

// Next returns the current sequence number and advances the counter.
func (d *Decider) Next() int64 {
	s := d.seq
	d.seq++
	return s
}

// ErrorSet is a deterministic injected-error table keyed by an integer
// id (a block number, an opcode, ...). It replaces the ad-hoc
// map-plus-failAll pairs that grew inside blockdev.Device, so every
// injection site shares one lookup discipline: the whole-set error
// first, then the per-id entry. The zero value is an empty set.
type ErrorSet struct {
	perID map[int]error
	all   error
}

// Inject arms err for id. A nil err clears just that id.
func (s *ErrorSet) Inject(id int, err error) {
	if err == nil {
		delete(s.perID, id)
		return
	}
	if s.perID == nil {
		s.perID = make(map[int]error)
	}
	s.perID[id] = err
}

// InjectAll arms err for every id. A nil err clears only the
// whole-set error, leaving per-id entries armed.
func (s *ErrorSet) InjectAll(err error) { s.all = err }

// All returns the whole-set error, if armed.
func (s *ErrorSet) All() error { return s.all }

// Clear disarms everything.
func (s *ErrorSet) Clear() {
	s.perID = nil
	s.all = nil
}

// Check returns the error armed for id: the whole-set error wins, then
// the per-id entry, else nil.
func (s *ErrorSet) Check(id int) error {
	if s.all != nil {
		return s.all
	}
	return s.perID[id]
}

// Empty reports whether no error is armed.
func (s *ErrorSet) Empty() bool { return s.all == nil && len(s.perID) == 0 }
