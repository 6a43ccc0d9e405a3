package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"bento/internal/costmodel"
	"bento/internal/vclock"
)

func testDev(t *testing.T, blocks int) *Device {
	t.Helper()
	d, err := New(Config{Blocks: blocks, Model: costmodel.Fast()})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func block(d *Device, fill byte) []byte {
	b := make([]byte, d.BlockSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Blocks: 0}); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if _, err := New(Config{Blocks: 1, BlockSize: 100}); err == nil {
		t.Fatal("non-sector block size accepted")
	}
	d, err := New(Config{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.BlockSize() != 4096 || d.Blocks() != 4 {
		t.Fatalf("defaults wrong: bs=%d blocks=%d", d.BlockSize(), d.Blocks())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := testDev(t, 8)
	clk := vclock.NewClock()
	want := block(d, 0xAB)
	if err := d.Write(clk, 3, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.BlockSize())
	if err := d.Read(clk, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read returned different data than written")
	}
}

func TestReadAdvancesClock(t *testing.T) {
	d := MustNew(Config{Blocks: 2, Model: costmodel.Default()})
	clk := vclock.NewClock()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, 0, buf); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < d.Model().DevRead(d.BlockSize()) {
		t.Fatalf("clock %v did not advance by at least the read service time", clk.Now())
	}
}

func TestSubmitBatchingBeatsSyncWrites(t *testing.T) {
	// Eight queued writes on an 8-channel device should finish in about one
	// service time; eight synchronous writes take eight.
	m := costmodel.Default()
	dA := MustNew(Config{Blocks: 16, Model: m})
	clkA := vclock.NewClock()
	var last int64
	for i := 0; i < 8; i++ {
		c, err := dA.Submit(clkA, i, block(dA, 1))
		if err != nil {
			t.Fatal(err)
		}
		if c > last {
			last = c
		}
	}
	clkA.AdvanceTo(last)

	dB := MustNew(Config{Blocks: 16, Model: m})
	clkB := vclock.NewClock()
	for i := 0; i < 8; i++ {
		if err := dB.Write(clkB, i, block(dB, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if clkA.Now()*4 > clkB.Now() {
		t.Fatalf("batched writes (%v) should be far faster than sync writes (%v)", clkA.Now(), clkB.Now())
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDev(t, 2)
	clk := vclock.NewClock()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, 2, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read block 2 of 2: err = %v, want ErrOutOfRange", err)
	}
	if err := d.Read(clk, -1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read block -1: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.Submit(clk, 99, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write block 99: err = %v, want ErrOutOfRange", err)
	}
}

func TestBadBufferSize(t *testing.T) {
	d := testDev(t, 2)
	clk := vclock.NewClock()
	if err := d.Read(clk, 0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
	if _, err := d.Submit(clk, 0, make([]byte, 100)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
}

func TestFlushMakesWritesDurable(t *testing.T) {
	d := testDev(t, 4)
	clk := vclock.NewClock()
	if err := d.Write(clk, 1, block(d, 0x11)); err != nil {
		t.Fatal(err)
	}
	if d.DirtyBlocks() != 1 {
		t.Fatalf("dirty = %d, want 1", d.DirtyBlocks())
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	if d.DirtyBlocks() != 0 {
		t.Fatalf("dirty after flush = %d, want 0", d.DirtyBlocks())
	}
	d.Crash(0, 1) // lose everything volatile — nothing should be volatile
	got := make([]byte, d.BlockSize())
	if err := d.Read(clk, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(d, 0x11)) {
		t.Fatal("flushed write lost after crash")
	}
}

func TestCrashLosesUnflushedWrites(t *testing.T) {
	d := testDev(t, 4)
	clk := vclock.NewClock()
	if err := d.Write(clk, 1, block(d, 0x22)); err != nil {
		t.Fatal(err)
	}
	d.Crash(0, 1) // keep none of the write cache
	got := make([]byte, d.BlockSize())
	if err := d.Read(clk, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, d.BlockSize())) {
		t.Fatal("unflushed write survived a keep-nothing crash")
	}
}

func TestCrashKeepAllRetainsWrites(t *testing.T) {
	d := testDev(t, 4)
	clk := vclock.NewClock()
	if err := d.Write(clk, 2, block(d, 0x33)); err != nil {
		t.Fatal(err)
	}
	d.Crash(1, 1)
	got := make([]byte, d.BlockSize())
	if err := d.Read(clk, 2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(d, 0x33)) {
		t.Fatal("keep-all crash dropped a write")
	}
}

func TestCrashDeterministicForSeed(t *testing.T) {
	mk := func() *Device {
		d := testDev(t, 64)
		clk := vclock.NewClock()
		for i := 0; i < 64; i++ {
			if err := d.Write(clk, i, block(d, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash(0.5, 42)
		return d
	}
	a, b := mk(), mk()
	clk := vclock.NewClock()
	ba := make([]byte, a.BlockSize())
	bb := make([]byte, b.BlockSize())
	for i := 0; i < 64; i++ {
		if err := a.Read(clk, i, ba); err != nil {
			t.Fatal(err)
		}
		if err := b.Read(clk, i, bb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("block %d differs across same-seed crashes", i)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	d := testDev(t, 4)
	clk := vclock.NewClock()
	buf := make([]byte, d.BlockSize())

	d.InjectReadError(1)
	if err := d.Read(clk, 1, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("read err = %v, want ErrIO", err)
	}
	if err := d.Read(clk, 0, buf); err != nil {
		t.Fatalf("unrelated block affected: %v", err)
	}

	d.InjectWriteError(2)
	if _, err := d.Submit(clk, 2, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("write err = %v, want ErrIO", err)
	}

	d.FailAll()
	if err := d.Read(clk, 0, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("FailAll read err = %v", err)
	}
	if err := d.Flush(clk); !errors.Is(err, ErrIO) {
		t.Fatalf("FailAll flush err = %v", err)
	}

	d.ClearFaults()
	if err := d.Read(clk, 1, buf); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
}

func TestStatsCount(t *testing.T) {
	d := testDev(t, 4)
	clk := vclock.NewClock()
	buf := block(d, 1)
	_ = d.Write(clk, 0, buf)
	_ = d.Write(clk, 1, buf)
	_ = d.Read(clk, 0, buf)
	_ = d.Flush(clk)
	st := d.Stats()
	if st.Writes != 2 || st.Reads != 1 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != int64(2*d.BlockSize()) {
		t.Fatalf("bytes written = %d", st.BytesWritten)
	}
	d.ResetStats()
	if st := d.Stats(); st != (Stats{}) {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestFlushCostScalesWithDirty(t *testing.T) {
	m := costmodel.Default()
	run := func(n int) (elapsed int64) {
		d := MustNew(Config{Blocks: 256, Model: m})
		clk := vclock.NewClock()
		var last int64
		for i := 0; i < n; i++ {
			c, err := d.Submit(clk, i, block(d, 1))
			if err != nil {
				t.Fatal(err)
			}
			if c > last {
				last = c
			}
		}
		clk.AdvanceTo(last)
		before := clk.NowNS()
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		return clk.NowNS() - before
	}
	small, large := run(1), run(200)
	if large <= small {
		t.Fatalf("flush of 200 dirty (%d ns) should cost more than of 1 (%d ns)", large, small)
	}
}

// Property: after any sequence of writes followed by a Flush, every block
// reads back the most recent write even across a keep-nothing crash.
func TestDurabilityProperty(t *testing.T) {
	f := func(ops []struct {
		Blk  uint8
		Fill byte
	}) bool {
		d := MustNew(Config{Blocks: 256, Model: costmodel.Fast()})
		clk := vclock.NewClock()
		want := make(map[int]byte)
		for _, op := range ops {
			blk := int(op.Blk)
			if err := d.Write(clk, blk, block(d, op.Fill)); err != nil {
				return false
			}
			want[blk] = op.Fill
		}
		if err := d.Flush(clk); err != nil {
			return false
		}
		d.Crash(0, 7)
		buf := make([]byte, d.BlockSize())
		for blk, fill := range want {
			if err := d.Read(clk, blk, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, block(d, fill)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestByReferenceFrontMatchesCopying: Borrow and SubmitOwned go through
// the same front as Read and Submit — validation, both fault sets, the
// power-cut countdown, Stats and the clock. Two devices run one script,
// one by reference and one copying, and must agree on every error, on the
// clock after every step and on the counters at the end.
func TestByReferenceFrontMatchesCopying(t *testing.T) {
	ref, cp := testDev(t, 16), testDev(t, 16)
	rclk, cclk := vclock.NewClock(), vclock.NewClock()
	step := 0
	same := func(rerr, cerr error) {
		t.Helper()
		step++
		for _, class := range []error{ErrOutOfRange, ErrIO, ErrBadSize, ErrPowerLoss} {
			if errors.Is(rerr, class) != errors.Is(cerr, class) {
				t.Fatalf("step %d: by reference %v, copying %v", step, rerr, cerr)
			}
		}
		if (rerr == nil) != (cerr == nil) {
			t.Fatalf("step %d: by reference %v, copying %v", step, rerr, cerr)
		}
		if rclk.NowNS() != cclk.NowNS() {
			t.Fatalf("step %d: clock %d by reference, %d copying", step, rclk.NowNS(), cclk.NowNS())
		}
		if ref.PowerOut() != cp.PowerOut() || ref.WriteCmds() != cp.WriteCmds() {
			t.Fatalf("step %d: power %v/%v, write commands %d/%d", step, ref.PowerOut(), cp.PowerOut(), ref.WriteCmds(), cp.WriteCmds())
		}
	}
	write := func(blk int, fill byte, n int) {
		t.Helper()
		rdone, rerr := ref.SubmitOwned(rclk, blk, bytes.Repeat([]byte{fill}, n))
		cdone, cerr := cp.Submit(cclk, blk, bytes.Repeat([]byte{fill}, n))
		if rdone != cdone {
			t.Fatalf("block %d: completion %d by reference, %d copying", blk, rdone, cdone)
		}
		rclk.AdvanceTo(rdone)
		cclk.AdvanceTo(cdone)
		same(rerr, cerr)
	}
	read := func(blk int, want byte) {
		t.Helper()
		view, rerr := ref.Borrow(rclk, blk)
		got := make([]byte, cp.BlockSize())
		cerr := cp.Read(cclk, blk, got)
		same(rerr, cerr)
		if rerr == nil && cerr == nil {
			if view == nil {
				view = make([]byte, ref.BlockSize())
			}
			if !bytes.Equal(view, got) || got[0] != want {
				t.Fatalf("block %d: view %#x, copy %#x, want %#x", blk, view[0], got[0], want)
			}
		}
	}
	both := func(f func(*Device)) { f(ref); f(cp) }

	bs := ref.BlockSize()
	write(3, 0xA1, bs)
	read(3, 0xA1)
	read(4, 0)          // never written: a nil view
	write(16, 0xA2, bs) // out of range
	write(-1, 0xA2, bs)
	write(2, 0xA2, bs-1) // bad size
	read(16, 0)
	both(func(d *Device) { d.InjectReadError(3); d.InjectWriteError(5) })
	read(3, 0)
	write(5, 0xA3, bs)
	write(6, 0xA4, bs)
	both(func(d *Device) { d.ClearFaults(); d.FailAll() })
	read(6, 0)
	write(6, 0xA5, bs)
	both(func(d *Device) { d.ClearFaults(); d.ArmPowerCut(2) })
	write(7, 0xA6, bs) // 1 of 2
	write(8, 0xA7, bs) // 2 of 2: the last to succeed
	write(9, 0xA8, bs) // power is out
	read(7, 0)
	both(func(d *Device) { d.Crash(0, 1); d.DisarmPowerCut() })
	read(3, 0) // never flushed
	if a, b := ref.Stats(), cp.Stats(); a != b {
		t.Fatalf("stats differ: by reference %+v, copying %+v", a, b)
	}
}
