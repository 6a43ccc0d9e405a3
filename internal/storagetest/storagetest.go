// Package storagetest is the shared conformance suite for
// blockdev.Backend implementations. Every backend — the local NVMe
// model, the netstore object tier, and whatever comes next — must pass
// the same battery: read-your-writes and zero-fill, flush as a
// durability barrier, the one-sided crash contract, seeded crash
// replay, power-cut semantics, virtual-time determinism, and the
// buffer-ownership rule for blocks passed by reference. Backend
// packages invoke it from their own tests:
//
//	func TestConformance(t *testing.T) {
//		storagetest.Run(t, func(blocks int) *blockdev.Device { ... })
//	}
//
// The suite drives backends only through the Device front, exactly as
// the file systems do, so it also pins the front/backend split: a
// backend that passes here behaves identically under validation, fault
// injection, and power-cut scheduling.
package storagetest

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/vclock"
)

// Factory builds a fresh Device of the given geometry over the backend
// under test. Each call must return an independent instance (no shared
// durable state) with a cost model fixed across calls, so paired
// instances replay identically.
type Factory func(blocks int) *blockdev.Device

// Run executes the conformance suite against the factory's backend.
func Run(t *testing.T, factory Factory) {
	t.Run("ReadYourWrites", func(t *testing.T) { readYourWrites(t, factory) })
	t.Run("ZeroFill", func(t *testing.T) { zeroFill(t, factory) })
	t.Run("FlushDurability", func(t *testing.T) { flushDurability(t, factory) })
	t.Run("CrashOneSided", func(t *testing.T) { crashOneSided(t, factory) })
	t.Run("CrashKeepAll", func(t *testing.T) { crashKeepAll(t, factory) })
	t.Run("CrashReplay", func(t *testing.T) { crashReplay(t, factory) })
	t.Run("FlushBarrier", func(t *testing.T) { flushBarrier(t, factory) })
	t.Run("PowerCut", func(t *testing.T) { powerCut(t, factory) })
	t.Run("TimeDeterminism", func(t *testing.T) { timeDeterminism(t, factory) })
	t.Run("Ownership", func(t *testing.T) { ownership(t, factory) })
}

func fill(d *blockdev.Device, b byte) []byte {
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func mustWrite(t *testing.T, d *blockdev.Device, clk *vclock.Clock, blk int, b byte) {
	t.Helper()
	if err := d.Write(clk, blk, fill(d, b)); err != nil {
		t.Fatalf("write blk %d: %v", blk, err)
	}
}

func mustRead(t *testing.T, d *blockdev.Device, clk *vclock.Clock, blk int) []byte {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, blk, buf); err != nil {
		t.Fatalf("read blk %d: %v", blk, err)
	}
	return buf
}

// readYourWrites: staged writes are visible to reads immediately, long
// before any flush.
func readYourWrites(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 64; blk += 7 {
		mustWrite(t, d, clk, blk, byte(blk+1))
	}
	for blk := 0; blk < 64; blk += 7 {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(blk+1))) {
			t.Fatalf("blk %d: staged write not visible", blk)
		}
	}
}

// zeroFill: never-written blocks read as zeros, including blocks that
// share an extent with written ones.
func zeroFill(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	mustWrite(t, d, clk, 8, 0xAA)
	for _, blk := range []int{0, 7, 9, 63} {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, make([]byte, d.BlockSize())) {
			t.Fatalf("blk %d: expected zeros, got %x...", blk, got[:4])
		}
	}
}

// flushDurability: everything staged before a flush survives a total
// write-cache loss (Crash with keepFraction 0).
func flushDurability(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 20; blk++ {
		mustWrite(t, d, clk, blk, byte(blk+1))
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	if n := d.DirtyBlocks(); n != 0 {
		t.Fatalf("DirtyBlocks = %d after flush, want 0", n)
	}
	d.Crash(0, 1)
	for blk := 0; blk < 20; blk++ {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(blk+1))) {
			t.Fatalf("blk %d: flushed data lost in crash", blk)
		}
	}
}

// crashOneSided: the crash contract is one-sided. After Crash(0), a
// block written both before and after the last flush holds either its
// flushed value or its staged value — backends may harden staged data
// early (netstore's eviction PUTs) — but never a torn mix and never
// garbage.
func crashOneSided(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, 0xAA)
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, 0xBB)
	}
	d.Crash(0, 7)
	for blk := 0; blk < 16; blk++ {
		got := mustRead(t, d, clk, blk)
		if !bytes.Equal(got, fill(d, 0xAA)) && !bytes.Equal(got, fill(d, 0xBB)) {
			t.Fatalf("blk %d: torn or corrupt after crash: %x...", blk, got[:4])
		}
	}
}

// crashKeepAll: keepFraction 1 preserves every staged write.
func crashKeepAll(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, byte(0x40+blk))
	}
	d.Crash(1, 99)
	for blk := 0; blk < 16; blk++ {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(0x40+blk))) {
			t.Fatalf("blk %d: staged write lost despite keepFraction=1", blk)
		}
	}
}

// crashReplay: a (seed, keepFraction) pair fully determines the
// post-crash image — two independent instances given the identical
// command sequence and crash land on identical contents.
func crashReplay(t *testing.T, f Factory) {
	image := func() [][]byte {
		d := f(64)
		clk := vclock.NewClock()
		for blk := 0; blk < 32; blk++ {
			mustWrite(t, d, clk, blk, 0x11)
		}
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		for blk := 0; blk < 32; blk += 2 {
			mustWrite(t, d, clk, blk, 0x22)
		}
		d.Crash(0.5, 1234)
		out := make([][]byte, 32)
		for blk := range out {
			out[blk] = mustRead(t, d, clk, blk)
		}
		return out
	}
	a, b := image(), image()
	for blk := range a {
		if !bytes.Equal(a[blk], b[blk]) {
			t.Fatalf("blk %d: crash replay diverged across instances", blk)
		}
	}
}

// flushBarrier: a flush's completion never precedes the completion of
// any write staged before it, and a task's virtual time is monotone
// through the whole sequence.
func flushBarrier(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	var lastSubmit int64
	for blk := 0; blk < 8; blk++ {
		done, err := d.Submit(clk, blk, fill(d, byte(blk+1)))
		if err != nil {
			t.Fatal(err)
		}
		if done > lastSubmit {
			lastSubmit = done
		}
	}
	if n := d.DirtyBlocks(); n <= 0 {
		t.Fatalf("DirtyBlocks = %d with staged writes, want > 0", n)
	}
	before := clk.NowNS()
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	if clk.NowNS() < before {
		t.Fatal("flush moved virtual time backwards")
	}
	if clk.NowNS() < lastSubmit {
		t.Fatalf("flush completed at %d, before staged write completion %d", clk.NowNS(), lastSubmit)
	}
}

// powerCut: the n-th write-class command after arming is the last to
// succeed; afterwards every command fails with ErrPowerLoss until
// power is restored, and restoring power alone does not lose flushed
// data.
func powerCut(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	mustWrite(t, d, clk, 0, 0xAA)
	d.ArmPowerCut(2)
	mustWrite(t, d, clk, 1, 0xBB)        // write-class 1 of 2
	if err := d.Flush(clk); err != nil { // write-class 2 of 2: the last to succeed
		t.Fatal(err)
	}
	if !d.PowerOut() {
		t.Fatal("power still on after the armed command count")
	}
	if err := d.Write(clk, 2, fill(d, 0xCC)); !errors.Is(err, blockdev.ErrPowerLoss) {
		t.Fatalf("write after cut: %v, want ErrPowerLoss", err)
	}
	if err := d.Read(clk, 0, make([]byte, d.BlockSize())); !errors.Is(err, blockdev.ErrPowerLoss) {
		t.Fatalf("read after cut: %v, want ErrPowerLoss", err)
	}
	d.Crash(0, 5)
	d.DisarmPowerCut()
	for blk, want := range map[int]byte{0: 0xAA, 1: 0xBB} {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, want)) {
			t.Fatalf("blk %d: flushed data lost across power cycle", blk)
		}
	}
	if got := mustRead(t, d, clk, 2); !bytes.Equal(got, make([]byte, d.BlockSize())) {
		t.Fatal("write issued after the cut left data behind")
	}
}

// timeDeterminism: completion times are a pure function of the command
// sequence — two instances running the same mixed read/write/flush
// workload finish at the same virtual instant with identical stats.
func timeDeterminism(t *testing.T, f Factory) {
	run := func() (int64, blockdev.Stats) {
		d := f(128)
		clk := vclock.NewClock()
		for i := 0; i < 100; i++ {
			blk := (i * 37) % 128
			switch i % 5 {
			case 0, 1, 2:
				mustWrite(t, d, clk, blk, byte(i))
			case 3:
				mustRead(t, d, clk, blk)
			case 4:
				if err := d.Flush(clk); err != nil {
					t.Fatal(err)
				}
			}
		}
		return clk.NowNS(), d.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("virtual end time diverged: %d vs %d", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("device stats diverged: %+v vs %+v", s1, s2)
	}
}

// ownership holds a backend to the buffer-ownership rule (blockdev.Backend):
// a buffer the backend can reach is immutable, and only a buffer that was
// never shared is recycled. Seeded streams of Submit, SubmitOwned, Borrow,
// Read, Flush, Crash and DropBackendCache run against it while the test
// keeps every view it was lent and every buffer it donated, and requires
// that
//
//   - no view and no donated buffer ever changes: the ones of the block a
//     call touched are checked right after it, all of them after every
//     Flush, Crash and cache drop, before one is forgotten, and at the end;
//   - Borrow and Read of the same block agree byte for byte, a nil view
//     being a block of zeros;
//   - a block reads back what was last written to it, until a crash makes
//     that uncertain.
//
// Commands may fail (a backend under a fault model): a failed command
// proves nothing and is skipped, but what it was given is still watched.
//
// Hand mutations this test kills, on the local backend and on netstore
// alike: SubmitBlock overwriting a staged buffer in place (a lent view or
// a donated buffer changes at the second write); putting a lent buffer on
// the free list when a Flush or PUT retires it, or an adopted one when a
// Crash drops it (the next copied write lands in it); restoring a crash
// loser by copying the durable image into the current buffer.
func ownership(t *testing.T, f Factory) {
	for seed := int64(1); seed <= 3; seed++ {
		ownershipStream(t, f, seed)
	}
}

func ownershipStream(t *testing.T, f Factory, seed int64) {
	const blocks, calls, keepPerBlock = 48, 1500, 6
	d := f(blocks)
	bs := d.BlockSize()
	clk := vclock.NewClock()
	rng := rand.New(rand.NewSource(seed))

	type held struct {
		buf []byte
		sum uint32
	}
	holds := make([][]held, blocks)
	checkBlock := func(i, blk int, what string) {
		t.Helper()
		for _, h := range holds[blk] {
			if crc32.ChecksumIEEE(h.buf) != h.sum {
				t.Fatalf("seed %d call %d (%s): a buffer lent from or donated to block %d changed", seed, i, what, blk)
			}
		}
	}
	checkAll := func(i int, what string) {
		t.Helper()
		for blk := range holds {
			checkBlock(i, blk, what)
		}
	}
	hold := func(i, blk int, b []byte) {
		if len(holds[blk]) == keepPerBlock {
			checkBlock(i, blk, "forget")
			holds[blk] = holds[blk][1:]
		}
		holds[blk] = append(holds[blk], held{b, crc32.ChecksumIEEE(b)})
	}

	// last[blk] is what the block must read as; nil once a crash (or a
	// failed write) has made that unknown, until the next successful write.
	last := make([][]byte, blocks)
	zeros := make([]byte, bs)
	for blk := range last {
		last[blk] = zeros
	}
	pattern := func() []byte {
		b := make([]byte, bs)
		if rng.Intn(8) != 0 { // sometimes a written block of zeros
			rng.Read(b)
		}
		return b
	}
	got := make([]byte, bs)

	for i := 0; i < calls; i++ {
		blk := rng.Intn(blocks)
		switch p := rng.Intn(100); {
		case p < 22: // copied write: the caller keeps its buffer and may scribble on it
			b := pattern()
			if _, err := d.Submit(clk, blk, b); err != nil {
				last[blk] = nil
			} else {
				last[blk] = bytes.Clone(b)
			}
			for j := range b {
				b[j] ^= 0xFF
			}
			checkBlock(i, blk, "Submit")
		case p < 44: // donated write
			b := pattern()
			hold(i, blk, b)
			if _, err := d.SubmitOwned(clk, blk, b); err != nil {
				last[blk] = nil
			} else {
				last[blk] = b
			}
			checkBlock(i, blk, "SubmitOwned")
		case p < 70: // Borrow, then Read: the two must agree
			view, berr := d.Borrow(clk, blk)
			rerr := d.Read(clk, blk, got)
			checkBlock(i, blk, "Borrow+Read")
			if berr != nil || rerr != nil {
				continue
			}
			want := view
			if view == nil {
				want = zeros
			} else {
				if len(view) != bs {
					t.Fatalf("seed %d call %d: block %d lent as %d bytes", seed, i, blk, len(view))
				}
				hold(i, blk, view)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d call %d: Borrow and Read of block %d disagree", seed, i, blk)
			}
			if last[blk] != nil && !bytes.Equal(got, last[blk]) {
				t.Fatalf("seed %d call %d: block %d does not read back its last write", seed, i, blk)
			}
		case p < 82:
			if err := d.Read(clk, blk, got); err == nil && last[blk] != nil && !bytes.Equal(got, last[blk]) {
				t.Fatalf("seed %d call %d: block %d does not read back its last write", seed, i, blk)
			}
			checkBlock(i, blk, "Read")
		case p < 90:
			_ = d.Flush(clk) // a failed flush leaves state staged; contents are unaffected
			checkAll(i, "Flush")
		case p < 96:
			d.Crash([]float64{0, 0.5, 1}[rng.Intn(3)], rng.Int63())
			if n := d.DirtyBlocks(); n != 0 {
				t.Fatalf("seed %d call %d: %d dirty blocks after Crash", seed, i, n)
			}
			for b := range last {
				last[b] = nil // flushed or staged or older: not this test's business
			}
			checkAll(i, "Crash")
		default:
			d.DropBackendCache()
			checkAll(i, "DropBackendCache")
		}
	}
	checkAll(calls, "end")
}
