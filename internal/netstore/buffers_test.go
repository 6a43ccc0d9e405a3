package netstore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/trace"
)

// The tests in this file pin the buffer-ownership rules stated on Store.
// They are white-box on purpose: the shared conformance suite's crash
// check is one-sided (it accepts either the flushed or the staged value),
// so a copy-on-write or hand-over bug that lets a staged write reach the
// durable tier through an alias is invisible to it. Here every expected
// byte is exact, and after every operation checkOwnership walks the
// durable map, the cache and the free lists.

// faultModes runs a sequence on the clean path and under the transient
// fault model, where individual PUT attempts fail and are retried.
var faultModes = []struct {
	name string
	fc   FaultConfig
}{
	{"clean", FaultConfig{}},
	{"faults", FaultConfig{Seed: 7, ErrProb: 0.05, TailMult: 4}},
}

// rig drives a Store directly (no Device front) and audits ownership
// after every step.
type rig struct {
	t   *testing.T
	s   *Store
	rec *trace.Recorder
	now int64
	buf []byte

	// role is the last role each buffer (keyed by its first byte's
	// address) was seen in; recycled counts buffers that became an
	// object's private buffer after serving in some other role.
	role     map[*byte]string
	recycled int
}

func newRig(t *testing.T, model *costmodel.Model, cfg Config) *rig {
	t.Helper()
	cfg.Name, cfg.BlockSize, cfg.Model = "net0", 4096, model
	if cfg.Blocks == 0 {
		cfg.Blocks = 1024
	}
	r := &rig{t: t, s: New(cfg), rec: trace.New(), buf: make([]byte, 4096), role: make(map[*byte]string)}
	r.s.SetRecorder(r.rec)
	return r
}

func (r *rig) advance(done int64) {
	if done > r.now {
		r.now = done
	}
	r.now++
	r.checkOwnership()
}

func (r *rig) write(blk int, b byte) {
	r.t.Helper()
	for i := range r.buf {
		r.buf[i] = b
	}
	done, err := r.s.SubmitBlock(r.now, blk, r.buf)
	if err != nil {
		r.t.Fatalf("write blk %d: %v", blk, err)
	}
	r.advance(done)
}

func (r *rig) flush() {
	r.t.Helper()
	done, err := r.s.Flush(r.now)
	if err != nil {
		r.t.Fatalf("flush: %v", err)
	}
	r.advance(done)
}

func (r *rig) crash(keep float64, seed int64) {
	r.s.Crash(keep, seed)
	r.advance(r.now)
}

func (r *rig) dropCache() {
	r.s.DropCache()
	r.advance(r.now)
}

// expect reads blk and requires every byte of it to equal want.
func (r *rig) expect(blk int, want byte) {
	r.t.Helper()
	for i := range r.buf {
		r.buf[i] = ^want
	}
	done, err := r.s.ReadBlock(r.now, blk, r.buf)
	if err != nil {
		r.t.Fatalf("read blk %d: %v", blk, err)
	}
	for i, b := range r.buf {
		if b != want {
			r.t.Fatalf("blk %d byte %d = %#x, want %#x", blk, i, b, want)
		}
	}
	r.advance(done)
}

// checkOwnership asserts the five ownership rules and the staged-count
// bookkeeping over the Store's whole state.
func (r *rig) checkOwnership() {
	r.t.Helper()
	s := r.s
	id := func(b []byte) *byte { return &b[0] }
	owner := make(map[*byte]string)
	claim := func(b []byte, who string) {
		r.t.Helper()
		if len(b) != s.objBytes {
			r.t.Fatalf("%s holds a %d-byte buffer, want %d", who, len(b), s.objBytes)
		}
		if prev, ok := owner[id(b)]; ok {
			r.t.Fatalf("buffer referenced by both %s and %s", prev, who)
		}
		owner[id(b)] = who
	}

	// Rule 2: the zero object is all zeros and never durable.
	for i, b := range s.zero {
		if b != 0 {
			r.t.Fatalf("zero object written at byte %d", i)
		}
	}
	claim(s.zero, "zero")
	for objID, d := range s.durable {
		claim(d, fmt.Sprintf("durable:%d", objID))
	}
	// Rule 4: nothing on the free list is referenced anywhere else.
	for i, b := range s.freeBufs {
		claim(b, fmt.Sprintf("free:%d", i))
	}

	staged := 0
	s.cache.ForEach(func(objID int64, o *object) bool {
		staged += bits.OnesCount64(o.dirty)
		if o.node.Dirty() != (o.dirty != 0) {
			r.t.Fatalf("object %d: node dirty %v but mask %#x", objID, o.node.Dirty(), o.dirty)
		}
		if o.dirty != 0 {
			// Rule 1: private — claim fails if anyone else holds it.
			who := fmt.Sprintf("private:%d", objID)
			claim(o.data, who)
			if prev, ok := r.role[id(o.data)]; ok && prev != who {
				r.recycled++
			}
			return true
		}
		want := s.zero
		if d, ok := s.durable[objID]; ok {
			want = d
		}
		if id(o.data) != id(want) {
			r.t.Fatalf("clean object %d does not share its durable (or the zero) buffer", objID)
		}
		return true
	})
	if staged != s.staged || staged != s.DirtyBlocks() {
		r.t.Fatalf("popcount sum %d, staged %d, DirtyBlocks %d", staged, s.staged, s.DirtyBlocks())
	}
	for _, o := range s.freeObjs {
		if o.data != nil || o.dirty != 0 || o.node.Dirty() {
			r.t.Fatal("released object struct still carries state")
		}
	}
	for p, who := range owner {
		if who[0] == 'f' { // free:<i> — positions shift, the role does not
			who = "free"
		}
		r.role[p] = who
	}
}

// TestCrashRevertsToFlushed: flush 0xAA, overwrite with 0xBB in a cache
// large enough that no eviction PUT fires, crash keeping nothing — every
// block must read exactly 0xAA. If the copy-on-write copy were skipped
// the overwrite would land in the durable buffer; if the hand-over left
// the object private-but-clean the durable tier would miss the flush.
// With readFirst the staged value must be visible before the crash.
func TestCrashRevertsToFlushed(t *testing.T) {
	for _, fm := range faultModes {
		for _, readFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readFirst=%v", fm.name, readFirst), func(t *testing.T) {
				r := newRig(t, costmodel.Fast(), Config{Faults: fm.fc})
				const blocks = 3 * DefaultObjectBlocks
				for blk := 0; blk < blocks; blk++ {
					r.write(blk, 0xAA)
				}
				r.flush()
				for blk := 0; blk < blocks; blk++ {
					r.write(blk, 0xBB)
				}
				if puts := r.rec.Counters()["net_puts"]; puts != 3 {
					t.Fatalf("net_puts = %d before the crash, want 3 (no eviction PUT)", puts)
				}
				if readFirst {
					for blk := 0; blk < blocks; blk++ {
						r.expect(blk, 0xBB)
					}
				}
				r.crash(0, 42)
				for blk := 0; blk < blocks; blk++ {
					r.expect(blk, 0xAA)
				}
			})
		}
	}
}

// TestCrashKeepsSecondFlush: flush → overwrite → flush → overwrite →
// crash(0) leaves the second flushed value: the second PUT's hand-over
// replaces the first durable buffer, and the third write's private copy
// must not be the buffer now serving as durable.
func TestCrashKeepsSecondFlush(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Fast(), Config{Faults: fm.fc})
			const blocks = 2 * DefaultObjectBlocks
			for _, b := range []byte{0xAA, 0xBB} {
				for blk := 0; blk < blocks; blk++ {
					r.write(blk, b)
				}
				r.flush()
			}
			for blk := 0; blk < blocks; blk++ {
				r.write(blk, 0xCC)
			}
			r.crash(0, 1)
			for blk := 0; blk < blocks; blk++ {
				r.expect(blk, 0xBB)
			}
		})
	}
}

// TestZeroObjectShared: never-stored objects all read through one zero
// object, so a write into one of them must copy first — its neighbours,
// and its own unwritten blocks, keep reading zeros, cached or cold.
func TestZeroObjectShared(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Fast(), Config{Faults: fm.fc})
			const ob = DefaultObjectBlocks
			r.expect(ob, 0) // object 1 resident, sharing the zero object
			r.write(3, 0xD1)
			r.expect(3, 0xD1)
			r.expect(4, 0)
			r.expect(ob, 0)
			r.expect(2*ob+3, 0)
			r.flush()
			r.dropCache()
			r.expect(3, 0xD1)
			r.expect(4, 0)
			r.expect(ob+3, 0)
		})
	}
}

// TestCrashKeepsEveryStagedBlock: Crash(1) makes every staged block
// durable — into the existing durable buffer of a stored object and into
// a fresh, cleared one for a never-stored object — and nothing else.
func TestCrashKeepsEveryStagedBlock(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Fast(), Config{ObjectBlocks: 4, Faults: fm.fc})
			for blk := 0; blk < 4; blk++ {
				r.write(blk, 0xA0)
			}
			r.flush()
			// Leave three buffers full of 0xEE on the free list: the two
			// copy-on-write copies below take one each, so the durable
			// object Crash builds for object 2 is the third — it must be
			// cleared, not assumed fresh.
			for _, obj := range []int{1, 3, 4} {
				for i := 0; i < 4; i++ {
					r.write(obj*4+i, 0xEE)
				}
			}
			r.crash(0, 9)
			if len(r.s.freeBufs) != 3 {
				t.Fatalf("free list holds %d buffers after the crash, want 3", len(r.s.freeBufs))
			}
			r.write(1, 0xB1) // object 0: stored
			r.write(9, 0xB9) // object 2: never stored
			r.crash(1, 9)
			for blk, want := range map[int]byte{0: 0xA0, 1: 0xB1, 2: 0xA0, 3: 0xA0, 8: 0, 9: 0xB9, 10: 0, 11: 0, 4: 0, 5: 0} {
				r.expect(blk, want)
			}
		})
	}
}

// TestBufferChurn recycles buffers many times over — eviction PUTs under
// a 4-object cache, cache drops, keep-everything and keep-nothing
// crashes — and requires every written block to read its last value and
// every never-written block zeros throughout.
func TestBufferChurn(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			const (
				objBlocks = 4
				cacheObjs = 4
				blocks    = 96 // 24 objects
			)
			r := newRig(t, costmodel.Fast(), Config{
				Blocks: blocks, ObjectBlocks: objBlocks, CacheObjects: cacheObjs, Faults: fm.fc,
			})
			rng := rand.New(rand.NewSource(5))
			last := make([]byte, blocks) // blocks with blk%5 == 0 are never written
			for round := 0; round < 16; round++ {
				for i := 0; i < 40; i++ {
					blk := rng.Intn(blocks)
					if blk%5 == 0 {
						continue
					}
					last[blk] = byte(1 + rng.Intn(255))
					r.write(blk, last[blk])
				}
				switch round % 4 {
				case 0:
					r.flush()
					r.dropCache()
				case 1:
					r.crash(1, int64(round))
				case 2:
					// Stage throw-away values in fewer objects than the
					// cache holds — after a flush nothing else is dirty,
					// so no eviction PUT can save them — and lose them.
					r.flush()
					for obj := 0; obj < cacheObjs-1; obj++ {
						r.write((round+obj*5)%24*objBlocks+1, 0xEE)
					}
					r.crash(0, int64(round))
				}
				t.Logf("round %d", round)
				for blk, want := range last {
					r.expect(blk, want)
				}
			}
			if r.recycled < 4*cacheObjs {
				t.Fatalf("churn recycled %d buffers, want >= %d", r.recycled, 4*cacheObjs)
			}
			if puts := r.rec.Counters()["net_evict_puts"]; puts == 0 {
				t.Fatal("churn fired no eviction PUT")
			}
		})
	}
}

// TestFailedPutKeepsObjectPrivate: an eviction PUT that fails outright
// (blackout, one attempt) must leave its victim dirty, private and
// readable, and must not have handed anything to the durable tier — a
// keep-nothing crash then reverts to the last flushed value — while a
// later flush, once the network is back, makes the staged value durable.
func TestFailedPutKeepsObjectPrivate(t *testing.T) {
	for _, crashDuringOutage := range []bool{true, false} {
		t.Run(fmt.Sprintf("crashDuringOutage=%v", crashDuringOutage), func(t *testing.T) {
			m := *costmodel.Fast()
			m.NetHedgeMult = 0
			r := newRig(t, &m, Config{
				ObjectBlocks: 4, CacheObjects: 2,
				// BreakerK out of reach: this test is about the failed
				// PUT, not degraded-mode write refusal.
				Faults: FaultConfig{Seed: 3, MaxAttempts: 1, BreakerK: 1000},
			})
			r.write(0, 0xAA)
			r.flush()
			r.write(0, 0xBB) // object 0 dirty again
			r.write(4, 0xC1) // object 1 dirty: cache full of dirty
			r.s.ArmOutage(r.now, r.now+100_000)
			putsBefore := r.rec.Counters()["net_puts"]
			r.write(8, 0xC2) // eviction PUT of object 0 fails; cache overflows
			if got := r.rec.Counters()["net_puts"] - putsBefore; got != 1 {
				t.Fatalf("net_puts moved by %d on the overflowing insert, want 1 failed eviction PUT", got)
			}
			if r.s.CacheLen() != 3 || r.s.DirtyBlocks() != 3 {
				t.Fatalf("CacheLen %d DirtyBlocks %d after the failed eviction PUT, want 3/3", r.s.CacheLen(), r.s.DirtyBlocks())
			}
			r.expect(0, 0xBB)
			if crashDuringOutage {
				r.crash(0, 1)
				r.now += 200_000
				r.expect(0, 0xAA)
				r.expect(4, 0)
				r.expect(8, 0)
				return
			}
			r.now += 200_000
			r.flush()
			r.crash(0, 1)
			r.expect(0, 0xBB)
			r.expect(4, 0xC1)
			r.expect(8, 0xC2)
		})
	}
}
