package bentoks

import (
	"errors"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/kernel"
)

func setup(t *testing.T) (*SuperBlock, *kernel.Task) {
	t.Helper()
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	k := kernel.New(model)
	bc := kernel.NewBufferCache(dev, model, 16)
	return NewSuperBlock(bc, NewChecker()), k.NewTask("t")
}

func TestBReadReleaseCycle(t *testing.T) {
	sb, task := setup(t)
	bh, err := sb.BRead(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bh.Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != sb.BlockSize() {
		t.Fatalf("data len = %d", len(data))
	}
	if err := bh.Release(); err != nil {
		t.Fatal(err)
	}
	if got := sb.Checker().Outstanding(); len(got) != 0 {
		t.Fatalf("outstanding after release: %v", got)
	}
}

func TestUseAfterReleaseDetected(t *testing.T) {
	sb, task := setup(t)
	bh, _ := sb.BRead(task, 2)
	_ = bh.Release()
	if _, err := bh.Data(); err == nil {
		t.Fatal("Data() after release succeeded")
	} else if v, ok := IsViolation(err); !ok || v.Kind != UseAfterRelease {
		t.Fatalf("err = %v, want UseAfterRelease violation", err)
	}
	if err := bh.MarkDirty(); err == nil {
		t.Fatal("MarkDirty() after release succeeded")
	}
	if _, err := bh.SubmitWrite(task); err == nil {
		t.Fatal("SubmitWrite() after release succeeded")
	}
	if len(sb.Checker().Violations()) < 3 {
		t.Fatalf("violations = %v", sb.Checker().Violations())
	}
}

func TestDoubleReleaseDetected(t *testing.T) {
	sb, task := setup(t)
	bh, _ := sb.BRead(task, 3)
	if err := bh.Release(); err != nil {
		t.Fatal(err)
	}
	err := bh.Release()
	if v, ok := IsViolation(err); !ok || v.Kind != DoubleRelease {
		t.Fatalf("second release = %v, want DoubleRelease", err)
	}
}

func TestLeakDetection(t *testing.T) {
	sb, task := setup(t)
	if _, err := sb.BRead(task, 4); err != nil {
		t.Fatal(err) // deliberately never released
	}
	if _, err := sb.BRead(task, 5); err != nil {
		t.Fatal(err)
	}
	if got := len(sb.Checker().Outstanding()); got != 2 {
		t.Fatalf("outstanding = %d, want 2", got)
	}
	if n := sb.Checker().CheckLeaks(); n != 2 {
		t.Fatalf("CheckLeaks = %d, want 2", n)
	}
	leaks := 0
	for _, v := range sb.Checker().Violations() {
		if v.Kind == Leak {
			leaks++
		}
	}
	if leaks != 2 {
		t.Fatalf("leak violations = %d, want 2", leaks)
	}
}

func TestSliceBoundsChecked(t *testing.T) {
	sb, task := setup(t)
	bh, _ := sb.BRead(task, 7)
	defer bh.Release()
	if _, err := bh.Slice(0, 16); err != nil {
		t.Fatalf("valid slice rejected: %v", err)
	}
	if _, err := bh.Slice(sb.BlockSize()-8, 16); err == nil {
		t.Fatal("out-of-bounds slice allowed")
	} else if v, ok := IsViolation(err); !ok || v.Kind != OutOfBounds {
		t.Fatalf("err = %v, want OutOfBounds", err)
	}
	if _, err := bh.Slice(-1, 4); err == nil {
		t.Fatal("negative offset allowed")
	}
}

func TestForgedSuperBlockRejected(t *testing.T) {
	forged := &SuperBlock{} // not minted by the framework
	k := kernel.New(costmodel.Default())
	task := k.NewTask("attacker")
	if _, err := forged.BRead(task, 0); err == nil {
		t.Fatal("forged capability allowed block I/O")
	} else if v, ok := IsViolation(err); !ok || v.Kind != ForgedCapability {
		t.Fatalf("err = %v, want ForgedCapability", err)
	}
	var nilSB *SuperBlock
	if err := nilSB.Flush(task); err == nil {
		t.Fatal("nil capability allowed flush")
	}
}

func TestWriteThroughWrapperPersists(t *testing.T) {
	sb, task := setup(t)
	bh, err := sb.BReadNoFill(task, 9)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := bh.Data()
	copy(data, []byte("bento!"))
	if err := bh.MarkDirty(); err != nil {
		t.Fatal(err)
	}
	if err := bh.WriteSync(task); err != nil {
		t.Fatal(err)
	}
	if err := bh.Release(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, sb.BlockSize())
	if err := sb.Device().Read(task.Clk, 9, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "bento!" {
		t.Fatalf("device has %q", buf[:6])
	}
}

func TestSemaphoreMisuseDetected(t *testing.T) {
	c := NewChecker()
	s := NewSemaphore(c)
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if v, ok := IsViolation(s.Release()); !ok || v.Kind != DoubleRelease {
		t.Fatal("release of unheld semaphore not reported as a double release")
	}
	if len(c.Violations()) != 1 {
		t.Fatalf("violations = %v", c.Violations())
	}
}

// section takes each semaphore in order, then releases them in reverse,
// and returns the first violation Acquire reported.
func section(t *testing.T, sems ...*Semaphore) error {
	t.Helper()
	var first error
	for _, s := range sems {
		if err := s.Acquire(); err != nil && first == nil {
			first = err
		}
	}
	for i := len(sems) - 1; i >= 0; i-- {
		if err := sems[i].Release(); err != nil {
			t.Fatalf("release of held %s: %v", sems[i].name(), err)
		}
	}
	return first
}

// deadlocks returns the Deadlock violations c recorded.
func deadlocks(c *Checker) []Violation {
	var out []Violation
	for _, v := range c.Violations() {
		if v.Kind == Deadlock {
			out = append(out, v)
		}
	}
	return out
}

func TestLockOrderInversionReported(t *testing.T) {
	c := NewChecker()
	a, b := NewSemaphore(c), NewSemaphore(c)
	if err := section(t, a, b); err != nil {
		t.Fatalf("first order reported: %v", err)
	}
	err := section(t, b, a)
	if v, ok := IsViolation(err); !ok || v.Kind != Deadlock {
		t.Fatalf("B then A after A then B: err = %v, want a deadlock violation", err)
	}
	got := deadlocks(c)
	if len(got) != 1 || len(c.Violations()) != 1 {
		t.Fatalf("violations = %v, want exactly one deadlock", c.Violations())
	}
	for _, name := range []string{"semaphore 1", "semaphore 2"} {
		if !strings.Contains(got[0].Msg, name) {
			t.Errorf("report %q does not name %s", got[0].Msg, name)
		}
	}
}

func TestLockOrderThreeCycleReported(t *testing.T) {
	c := NewChecker()
	a, b, d := NewSemaphore(c), NewSemaphore(c), NewSemaphore(c)
	if section(t, a, b) != nil || section(t, b, d) != nil {
		t.Fatalf("consistent prefix reported: %v", c.Violations())
	}
	if err := section(t, d, a); err == nil {
		t.Fatal("C then A after A→B and B→C not reported")
	}
	got := deadlocks(c)
	if len(got) != 1 {
		t.Fatalf("violations = %v, want exactly one deadlock", c.Violations())
	}
	const cycle = "semaphore 3 → semaphore 1 → semaphore 2 → semaphore 3"
	if !strings.Contains(got[0].Msg, cycle) {
		t.Errorf("report %q does not spell the cycle %s", got[0].Msg, cycle)
	}
}

func TestLockOrderConsistentIsQuiet(t *testing.T) {
	c := NewChecker()
	a, b := NewSemaphore(c), NewSemaphore(c)
	for _, sems := range [][]*Semaphore{{a, b}, {a, b}, {a}, {b}} {
		if err := section(t, sems...); err != nil {
			t.Fatalf("consistent order reported: %v", err)
		}
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v, want none", v)
	}
}

// TestReacquireReportedWithoutBlocking: taking a held semaphore again
// returns a report instead of waiting for a release nothing can run to
// make. With a blocking semaphore this test hangs until -timeout.
func TestReacquireReportedWithoutBlocking(t *testing.T) {
	c := NewChecker()
	s := NewSemaphore(c)
	if err := s.Acquire(); err != nil {
		t.Fatal(err)
	}
	err := s.Acquire()
	if v, ok := IsViolation(err); !ok || v.Kind != Deadlock || !strings.Contains(v.Msg, "semaphore 1") {
		t.Fatalf("re-acquire: err = %v, want a deadlock violation naming semaphore 1", err)
	}
	if err := s.Release(); err != nil {
		t.Fatalf("one Release after a re-acquire: %v", err)
	}
	if err := s.Release(); err == nil {
		t.Fatal("semaphore still held after its Release")
	}
	if got := len(deadlocks(c)); got != 1 {
		t.Fatalf("violations = %v, want one deadlock", c.Violations())
	}
}

// TestSyncDirtyBuffersAndFlush: a dirty buffer written back, then a
// Flush, survives a crash that keeps nothing unflushed.
func TestSyncDirtyBuffersAndFlush(t *testing.T) {
	sb, task := setup(t)
	bh, _ := sb.BReadNoFill(task, 10)
	data, _ := bh.Data()
	data[0] = 0x7E
	_ = bh.MarkDirty()
	if err := bh.WriteSync(task); err != nil {
		t.Fatal(err)
	}
	_ = bh.Release()
	if err := sb.Flush(task); err != nil {
		t.Fatal(err)
	}
	// After a keep-nothing crash the write must survive (it was flushed).
	sb.Device().Crash(0, 1)
	buf := make([]byte, sb.BlockSize())
	if err := sb.Device().Read(task.Clk, 10, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x7E {
		t.Fatal("flushed buffer lost after crash")
	}
}

func TestViolationErrorString(t *testing.T) {
	v := &Violation{Kind: UseAfterRelease, Msg: "buffer 7"}
	if v.Error() == "" || !errors.As(error(v), new(*Violation)) {
		t.Fatal("Violation does not behave as an error")
	}
	for k := UseAfterRelease; k <= Deadlock; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// TestRawDiskChargesTheCacheAlone runs one sequence of borrows on the
// SuperBlock and on a RawDisk over twin devices: the raw disk must cost
// exactly the buffer cache's charges, the SuperBlock those plus one
// wrapper check per borrow, and neither may leave a buffer held.
func TestRawDiskChargesTheCacheAlone(t *testing.T) {
	model := costmodel.Default()
	if model.WrapperCheck == 0 {
		t.Fatal("the default model charges no wrapper check: nothing to tell apart")
	}
	k := kernel.New(model)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// run makes six borrows of d and reports the virtual time they took.
	run := func(d Disk, direct DirectDisk) int64 {
		task := k.NewTask("t")
		start := task.Clk.NowNS()
		var dst [8]byte
		b, err := d.BRead(task, 1)
		must(err)
		must(b.MarkDirty())
		must(d.ReadBlockRange(task, 2, 8, dst[:]))
		z, err := d.BReadNoFill(task, 9)
		must(err)
		c, err := d.BClone(task, 10, b)
		must(err)
		must(direct.BReadDirect(task, 20, make([]byte, d.BlockSize())))
		_, err = direct.BWriteDirect(task, 21, make([]byte, d.BlockSize()))
		must(err)
		for _, x := range []Buffer{b, z, c} {
			must(x.Release())
		}
		return task.Clk.NowNS() - start
	}
	newCache := func() *kernel.BufferCache {
		return kernel.NewBufferCache(blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model}), model, 16)
	}
	sbCache, rawCache := newCache(), newCache()
	sb := NewSuperBlock(sbCache, NewChecker())
	raw := NewRawDisk(k.NewTask("mount"), rawCache)
	checked, unchecked := run(sb, sb), run(raw, raw)
	if want := unchecked + 6*int64(model.WrapperCheck); checked != want {
		t.Errorf("SuperBlock took %d ns, RawDisk %d: want the RawDisk's plus six wrapper checks (%d)",
			checked, unchecked, want)
	}
	for name, bc := range map[string]*kernel.BufferCache{"SuperBlock": sbCache, "RawDisk": rawCache} {
		if n := bc.Held(); n != 0 {
			t.Errorf("%s: %d buffer(s) held after the sequence", name, n)
		}
	}
	if jt := raw.JournalTask(nil); jt == nil || raw.JournalTask(nil) != jt {
		t.Error("RawDisk's journal task is not the one made with the disk")
	}
}
