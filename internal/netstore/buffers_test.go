package netstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"slices"
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
// durable tables, the cache and the free lists.

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

	// role is the last role each block buffer (keyed by its first byte's
	// address) was seen in; recycled counts buffers that became a staged
	// block after serving in some other role.
	role     map[*byte]string
	recycled int

	// outside is every buffer the rig holds a reference to — views lent
	// by BorrowBlock, buffers donated through SubmitOwned — with the
	// checksum each must keep for ever.
	outside map[*byte]outsideBuf
}

type outsideBuf struct {
	buf []byte
	sum uint32
}

func newRig(t *testing.T, model *costmodel.Model, cfg Config) *rig {
	t.Helper()
	cfg.Name, cfg.BlockSize, cfg.Model = "net0", 4096, model
	if cfg.Blocks == 0 {
		cfg.Blocks = 1024
	}
	r := &rig{t: t, s: New(cfg), rec: trace.New(), buf: make([]byte, 4096), role: make(map[*byte]string), outside: make(map[*byte]outsideBuf)}
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

// donate is write through SubmitOwned: the Store keeps the buffer, the
// rig keeps watching it.
func (r *rig) donate(blk int, b byte) {
	r.t.Helper()
	buf := bytes.Repeat([]byte{b}, 4096)
	r.outside[&buf[0]] = outsideBuf{buf, crc32.ChecksumIEEE(buf)}
	done, err := r.s.SubmitOwned(r.now, blk, buf)
	if err != nil {
		r.t.Fatalf("donate blk %d: %v", blk, err)
	}
	r.advance(done)
}

// borrow is expect through BorrowBlock: a nil view is a block of zeros,
// and a view is held from then on.
func (r *rig) borrow(blk int, want byte) {
	r.t.Helper()
	view, done, err := r.s.BorrowBlock(r.now, blk)
	if err != nil {
		r.t.Fatalf("borrow blk %d: %v", blk, err)
	}
	if view == nil {
		if want != 0 {
			r.t.Fatalf("blk %d lent as zeros, want %#x", blk, want)
		}
	} else {
		if len(view) != 4096 {
			r.t.Fatalf("blk %d lent as %d bytes", blk, len(view))
		}
		for i, b := range view {
			if b != want {
				r.t.Fatalf("blk %d lent with byte %d = %#x, want %#x", blk, i, b, want)
			}
		}
		r.outside[&view[0]] = outsideBuf{view, crc32.ChecksumIEEE(view)}
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

// checkOwnership asserts the ownership rules and the staged-count
// bookkeeping over the Store's whole state: every block buffer is
// claimed by exactly one of a durable table slot, one cached object's
// staged slot, or the free list, every clean cached slot aliases its
// durable slot (nil where the object has none) and agrees with it on the
// shared mark, a buffer the rig holds is marked shared wherever a table
// references it and is never on the free list, and none of them has
// changed.
func (r *rig) checkOwnership() {
	r.t.Helper()
	s := r.s
	id := func(b []byte) *byte { return &b[0] }
	owner := make(map[*byte]string)
	claim := func(b []byte, who string, shared bool) {
		r.t.Helper()
		if len(b) != s.blockSize || cap(b) != s.blockSize {
			r.t.Fatalf("%s holds a buffer of len %d cap %d, want %d", who, len(b), cap(b), s.blockSize)
		}
		if prev, ok := owner[id(b)]; ok {
			r.t.Fatalf("buffer referenced by both %s and %s", prev, who)
		}
		if _, out := r.outside[id(b)]; out && !shared {
			r.t.Fatalf("%s holds a lent or adopted buffer without the shared mark", who)
		}
		owner[id(b)] = who
	}
	table := func(blocks [][]byte, who string) {
		r.t.Helper()
		if len(blocks) != s.objBlocks {
			r.t.Fatalf("%s has %d block slots, want %d", who, len(blocks), s.objBlocks)
		}
	}

	for objID, d := range s.durable {
		table(d.blocks, fmt.Sprintf("durable:%d", objID))
		for i, b := range d.blocks {
			if b != nil {
				claim(b, fmt.Sprintf("durable:%d/%d", objID, i), d.shared>>i&1 != 0)
			}
		}
	}
	// Rule 4: nothing on the free list is referenced anywhere else, in
	// the Store or outside it.
	for i, b := range s.freeBufs {
		claim(b, fmt.Sprintf("free:%d", i), false)
	}
	// The uncarved rest of the newest chunk is nobody's yet.
	if len(s.chunk) > 0 {
		if who, ok := owner[id(s.chunk)]; ok {
			r.t.Fatalf("%s holds a buffer inside the uncarved chunk", who)
		}
	}
	for _, h := range r.outside {
		if crc32.ChecksumIEEE(h.buf) != h.sum {
			r.t.Fatal("a lent view or a donated buffer changed")
		}
	}

	staged := 0
	s.cache.ForEach(func(objID int64, o *object) bool {
		table(o.blocks, fmt.Sprintf("cached:%d", objID))
		staged += bits.OnesCount64(o.dirty)
		if o.node.Dirty() != (o.dirty != 0) || o.dirty>>s.objBlocks != 0 {
			r.t.Fatalf("object %d: node dirty %v, mask %#x over %d blocks", objID, o.node.Dirty(), o.dirty, s.objBlocks)
		}
		durable := s.durable[objID] // nil: never stored
		for i, b := range o.blocks {
			if o.dirty>>i&1 != 0 {
				// Rule 1: in no other table — claim fails if it is.
				if b == nil {
					r.t.Fatalf("object %d block %d staged without a buffer", objID, i)
				}
				who := fmt.Sprintf("staged:%d/%d", objID, i)
				claim(b, who, o.shared>>i&1 != 0)
				if prev, ok := r.role[id(b)]; ok && prev != who {
					r.recycled++
				}
				continue
			}
			var want []byte
			var wantShared uint64
			if durable != nil {
				want, wantShared = durable.blocks[i], durable.shared>>i&1
			}
			if (b == nil) != (want == nil) || b != nil && id(b) != id(want) {
				r.t.Fatalf("object %d clean block %d does not share its durable buffer", objID, i)
			}
			if o.shared>>i&1 != wantShared {
				r.t.Fatalf("object %d clean block %d: shared mark %d, durable slot %d", objID, i, o.shared>>i&1, wantShared)
			}
		}
		return true
	})
	if staged != s.staged || staged != s.DirtyBlocks() {
		r.t.Fatalf("popcount sum %d, staged %d, DirtyBlocks %d", staged, s.staged, s.DirtyBlocks())
	}
	for _, o := range s.freeObjs {
		table(o.blocks, "released object")
		for _, b := range o.blocks {
			if b != nil || o.dirty != 0 || o.shared != 0 || o.node.Dirty() {
				r.t.Fatal("released object struct still carries state")
			}
		}
	}
	for p, who := range owner {
		if who[0] == 'f' { // free:<i> — positions shift, the role does not
			who = "free"
		}
		r.role[p] = who
	}
}

// held counts the block buffers a table references.
func held(blocks [][]byte) int {
	n := 0
	for _, b := range blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// TestCrashRevertsToFlushed: flush 0xAA, overwrite with 0xBB in a cache
// large enough that no eviction PUT fires, crash keeping nothing — every
// block must read exactly 0xAA. If a staged write reused the shared
// buffer the overwrite would land in the durable tier; if the hand-over
// left a block private-but-clean the durable tier would miss the flush.
// With readFirst the staged value must be visible before the crash.
func TestCrashRevertsToFlushed(t *testing.T) {
	for _, fm := range faultModes {
		for _, readFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readFirst=%v", fm.name, readFirst), func(t *testing.T) {
				r := newRig(t, costmodel.Default(), Config{Faults: fm.fc})
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
// replaces the first durable buffers, and the third write's private
// buffers must not be the ones now serving as durable.
func TestCrashKeepsSecondFlush(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Default(), Config{Faults: fm.fc})
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

// TestNeverStoredObjectHoldsNoBuffer: a never-stored object is a table
// of nil blocks — resident or not, it holds no buffer — and a write into
// one takes exactly one block buffer: its neighbours, and its own
// unwritten blocks, keep reading zeros, cached or cold.
func TestNeverStoredObjectHoldsNoBuffer(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Default(), Config{Faults: fm.fc})
			const ob = DefaultObjectBlocks
			r.expect(ob, 0) // object 1 resident
			if o, _ := r.s.cache.Peek(1); held(o.blocks) != 0 || r.s.chunk != nil {
				t.Fatalf("a never-stored object holds %d buffers (chunk %d bytes), want none allocated", held(o.blocks), len(r.s.chunk))
			}
			r.write(3, 0xD1)
			if o, _ := r.s.cache.Peek(0); held(o.blocks) != 1 || len(r.s.chunk) != (ob-1)*4096 {
				t.Fatalf("one staged block: object holds %d buffers, %d chunk bytes left, want 1 and %d", held(o.blocks), len(r.s.chunk), (ob-1)*4096)
			}
			r.expect(3, 0xD1)
			r.expect(4, 0)
			r.expect(ob, 0)
			r.expect(2*ob+3, 0)
			r.flush()
			r.dropCache()
			r.expect(3, 0xD1)
			r.expect(4, 0)
			r.expect(ob+3, 0)
			if d := r.s.durable[0]; len(r.s.durable) != 1 || held(d.blocks) != 1 {
				t.Fatalf("%d durable objects, object 0 holding %d buffers, want 1 and 1", len(r.s.durable), held(d.blocks))
			}
		})
	}
}

// TestPutHandsOverExactlyTheStagedBlocks: a PUT of an object with k
// staged blocks moves those k buffers into the durable table and returns
// exactly the k durable buffers they replace to the free list — none
// when the object was never stored.
func TestPutHandsOverExactlyTheStagedBlocks(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Default(), Config{ObjectBlocks: 8, Faults: fm.fc})
			id := func(b []byte) *byte { return &b[0] }
			for blk := 0; blk < 8; blk++ {
				r.write(blk, 0xA0)
			}
			r.flush()
			if n := len(r.s.freeBufs); n != 0 {
				t.Fatalf("the first PUT of an object freed %d buffers, want 0", n)
			}
			staged := []int{1, 4, 6}
			replaced, handed := make(map[*byte]bool), make(map[*byte]int)
			for _, i := range staged {
				replaced[id(r.s.durable[0].blocks[i])] = true
				r.write(i, 0xB0+byte(i))
			}
			o, _ := r.s.cache.Peek(0)
			for _, i := range staged {
				handed[id(o.blocks[i])] = i
			}
			r.flush()
			if len(r.s.freeBufs) != len(staged) {
				t.Fatalf("PUT of %d staged blocks freed %d buffers", len(staged), len(r.s.freeBufs))
			}
			for _, b := range r.s.freeBufs {
				if !replaced[id(b)] {
					t.Fatal("PUT freed a buffer that was not a replaced durable block")
				}
			}
			for p, i := range handed {
				if id(r.s.durable[0].blocks[i]) != p {
					t.Fatalf("durable block %d is not the staged buffer handed over", i)
				}
			}
			r.crash(0, 1)
			for blk := 0; blk < 8; blk++ {
				want := byte(0xA0)
				if slices.Contains(staged, blk) {
					want = 0xB0 + byte(blk)
				}
				r.expect(blk, want)
			}
		})
	}
}

// TestCrashKeepsEveryStagedBlock: Crash(1) makes every staged block
// durable — into the existing durable table of a stored object and into
// a fresh one for a never-stored object — and nothing else.
func TestCrashKeepsEveryStagedBlock(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			r := newRig(t, costmodel.Default(), Config{ObjectBlocks: 4, Faults: fm.fc})
			for blk := 0; blk < 4; blk++ {
				r.write(blk, 0xA0)
			}
			r.flush()
			// Leave twelve block buffers full of 0xEE on the free list: the
			// two writes below take one each, and the blocks of object 2
			// that nobody wrote must read zeros, not a recycled 0xEE.
			for _, obj := range []int{1, 3, 4} {
				for i := 0; i < 4; i++ {
					r.write(obj*4+i, 0xEE)
				}
			}
			r.crash(0, 9)
			if len(r.s.freeBufs) != 12 {
				t.Fatalf("free list holds %d buffers after the crash, want 12", len(r.s.freeBufs))
			}
			r.write(1, 0xB1) // object 0: stored
			r.write(9, 0xB9) // object 2: never stored
			r.crash(1, 9)
			// Two taken, one durable block of object 0 replaced.
			if len(r.s.freeBufs) != 11 || held(r.s.durable[2].blocks) != 1 {
				t.Fatalf("free list holds %d buffers, object 2 %d durable blocks after the kept crash, want 11 and 1", len(r.s.freeBufs), held(r.s.durable[2].blocks))
			}
			for blk, want := range map[int]byte{0: 0xA0, 1: 0xB1, 2: 0xA0, 3: 0xA0, 8: 0, 9: 0xB9, 10: 0, 11: 0, 4: 0, 5: 0} {
				r.expect(blk, want)
			}
		})
	}
}

// TestBufferChurn recycles buffers many times over — eviction PUTs under
// a 4-object cache, cache drops, keep-everything and keep-nothing
// crashes — and requires every written block to read its last value and
// every never-written block zeros throughout. A third of the writes are
// donated and half of the reads borrowed, so lent and adopted buffers pass
// through every slot the copied ones do, and checkOwnership watches each
// of them for ever.
func TestBufferChurn(t *testing.T) {
	for _, fm := range faultModes {
		t.Run(fm.name, func(t *testing.T) {
			const (
				objBlocks = 4
				cacheObjs = 4
				blocks    = 96 // 24 objects
			)
			r := newRig(t, costmodel.Default(), Config{
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
					if rng.Intn(3) == 0 {
						r.donate(blk, last[blk])
					} else {
						r.write(blk, last[blk])
					}
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
						if obj%2 == 0 {
							r.donate((round+obj*5)%24*objBlocks+1, 0xEE)
						} else {
							r.write((round+obj*5)%24*objBlocks+1, 0xEE)
						}
					}
					r.crash(0, int64(round))
				}
				t.Logf("round %d", round)
				for blk, want := range last {
					if rng.Intn(2) == 0 {
						r.borrow(blk, want)
					} else {
						r.expect(blk, want)
					}
				}
			}
			if r.recycled < 4*cacheObjs*objBlocks {
				t.Fatalf("churn recycled %d block buffers, want >= %d", r.recycled, 4*cacheObjs*objBlocks)
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
			m := *costmodel.Default()
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
			durableBefore := &r.s.durable[0].blocks[0][0]
			r.write(8, 0xC2) // eviction PUT of object 0 fails; cache overflows
			if o, _ := r.s.cache.Peek(0); &r.s.durable[0].blocks[0][0] != durableBefore || &o.blocks[0][0] == durableBefore ||
				len(r.s.durable) != 1 || len(r.s.freeBufs) != 0 {
				t.Fatalf("the failed eviction PUT moved a buffer: %d durable objects, %d free buffers", len(r.s.durable), len(r.s.freeBufs))
			}
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
