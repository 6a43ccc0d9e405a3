package kernel

import (
	"bytes"
	"maps"
	"testing"
)

// TestDirectIOBypassesCache is the contract of the single-copy data
// path: ReadDirect and WriteDirect move blocks between the device and
// caller-owned buffers without ever inserting them into the cache.
func TestDirectIOBypassesCache(t *testing.T) {
	bc, task := newTestCache(t, 64)

	want := bytes.Repeat([]byte{0xAB}, bc.Device().BlockSize())
	done, err := bc.WriteDirect(task, 7, want)
	if err != nil {
		t.Fatalf("WriteDirect: %v", err)
	}
	task.Clk.AdvanceTo(done)
	if n := bc.Len(); n != 0 {
		t.Fatalf("WriteDirect populated the cache: %d resident", n)
	}

	got := make([]byte, bc.Device().BlockSize())
	if err := bc.ReadDirect(task, 7, got); err != nil {
		t.Fatalf("ReadDirect: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadDirect returned wrong content")
	}
	if n := bc.Len(); n != 0 {
		t.Fatalf("ReadDirect populated the cache: %d resident", n)
	}

	c := task.Rec().Counters()
	if c["direct_reads"] != 1 || c["direct_writes"] != 1 {
		t.Fatalf("direct counters = %d/%d, want 1/1", c["direct_reads"], c["direct_writes"])
	}
	if c["buf_hits"] != 0 || c["buf_misses"] != 0 {
		t.Fatalf("direct I/O touched cache counters: %v", c)
	}
}

// TestFailedDirectIOCountsNothing: direct_reads and direct_writes count
// the commands the device carried out, so a direct read, a borrowed read
// or a direct write that fails counts in neither, and the same read
// counts once the fault clears.
func TestFailedDirectIOCountsNothing(t *testing.T) {
	bc, task := newTestCache(t, 64)
	dev := bc.Device()
	dev.InjectReadError(7)
	dev.InjectWriteError(7)
	buf := make([]byte, dev.BlockSize())
	if err := bc.ReadDirect(task, 7, buf); err == nil {
		t.Fatal("ReadDirect of a failing block succeeded")
	}
	if _, err := bc.BorrowDirect(task, 7); err == nil {
		t.Fatal("BorrowDirect of a failing block succeeded")
	}
	if _, err := bc.WriteDirect(task, 7, buf); err == nil {
		t.Fatal("WriteDirect of a failing block succeeded")
	}
	c := task.Rec().Counters()
	if c["direct_reads"] != 0 || c["direct_writes"] != 0 {
		t.Fatalf("failed direct I/O counted: direct_reads %d, direct_writes %d, want 0/0", c["direct_reads"], c["direct_writes"])
	}
	dev.ClearFaults()
	if err := bc.ReadDirect(task, 7, buf); err != nil {
		t.Fatal(err)
	}
	if n := task.Rec().Counters()["direct_reads"]; n != 1 {
		t.Fatalf("direct_reads = %d after one good read, want 1", n)
	}
}

// TestWriteDirectInvalidatesResidentCopy: a block that once lived in the
// cache (its earlier life as metadata) must not serve stale content
// after a direct write repurposes it as data.
func TestWriteDirectInvalidatesResidentCopy(t *testing.T) {
	bc, task := newTestCache(t, 64)

	getRelease(t, bc, task, 9) // resident clean copy (zeros)
	if n := bc.Len(); n != 1 {
		t.Fatalf("setup: %d resident, want 1", n)
	}

	want := bytes.Repeat([]byte{0x5C}, bc.Device().BlockSize())
	done, err := bc.WriteDirect(task, 9, want)
	if err != nil {
		t.Fatalf("WriteDirect: %v", err)
	}
	task.Clk.AdvanceTo(done)
	if n := bc.Len(); n != 0 {
		t.Fatalf("stale copy survived the direct write: %d resident", n)
	}

	// A buffered read after the direct write sees the new content.
	b, err := bc.Get(task, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Data(), want) {
		t.Fatal("buffered read after direct write returned stale content")
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirectFlushesDirtyResidentCopy: O_DIRECT semantics — a direct
// read of a block with a dirty cached copy first writes that copy out,
// so the device read observes every completed write.
func TestReadDirectFlushesDirtyResidentCopy(t *testing.T) {
	bc, task := newTestCache(t, 64)

	b, err := bc.GetNoRead(task, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x77}, bc.Device().BlockSize())
	copy(b.Data(), want)
	b.MarkDirty()
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, bc.Device().BlockSize())
	if err := bc.ReadDirect(task, 11, got); err != nil {
		t.Fatalf("ReadDirect: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadDirect missed the dirty cached copy")
	}
	if n := bc.Len(); n != 0 {
		t.Fatalf("dirty copy still resident after direct read: %d", n)
	}
}

// TestDirectIOByReference: BorrowDirect and WriteDirectOwned are
// ReadDirect and WriteDirect in everything but the copy — the same
// coherence with a resident copy (a dirty one is flushed first and the
// view shows it; an owned write invalidates it), the same counters and
// the same virtual time — and what passes between caller and device is
// the buffer itself.
func TestDirectIOByReference(t *testing.T) {
	bc, task := newTestCache(t, 64)
	bs := bc.Device().BlockSize()
	ref, refTask := newTestCache(t, 64) // the copying calls, side by side

	for _, c := range []struct {
		bc   *BufferCache
		task *Task
	}{{bc, task}, {ref, refTask}} {
		b, err := c.bc.GetNoRead(c.task, 11)
		if err != nil {
			t.Fatal(err)
		}
		copy(b.Data(), bytes.Repeat([]byte{0x77}, bs))
		b.MarkDirty()
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	view, err := bc.BorrowDirect(task, 11)
	if err != nil {
		t.Fatalf("BorrowDirect: %v", err)
	}
	if !bytes.Equal(view, bytes.Repeat([]byte{0x77}, bs)) {
		t.Fatal("BorrowDirect missed the dirty cached copy")
	}
	if n := bc.Len(); n != 0 {
		t.Fatalf("dirty copy still resident after the borrow: %d", n)
	}
	if err := ref.ReadDirect(refTask, 11, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}

	getRelease(t, bc, task, 9) // resident clean copy (zeros)
	getRelease(t, ref, refTask, 9)
	own := bytes.Repeat([]byte{0x5C}, bs)
	done, err := bc.WriteDirectOwned(task, 9, own)
	if err != nil {
		t.Fatalf("WriteDirectOwned: %v", err)
	}
	task.Clk.AdvanceTo(done)
	if n := bc.Len(); n != 0 {
		t.Fatalf("stale copy survived the owned write: %d resident", n)
	}
	if again, err := bc.BorrowDirect(task, 9); err != nil || &again[0] != &own[0] {
		t.Fatalf("the device did not keep the buffer it was given (err %v)", err)
	}
	done, err = ref.WriteDirect(refTask, 9, own)
	if err != nil {
		t.Fatal(err)
	}
	refTask.Clk.AdvanceTo(done)
	if err := ref.ReadDirect(refTask, 9, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}

	if zeros, err := bc.BorrowDirect(task, 40); err != nil || zeros != nil {
		t.Fatalf("BorrowDirect of a never-written block = %v, %v, want a nil view", zeros, err)
	}
	if err := ref.ReadDirect(refTask, 40, make([]byte, bs)); err != nil {
		t.Fatal(err)
	}

	if a, b := task.Clk.NowNS(), refTask.Clk.NowNS(); a != b {
		t.Fatalf("by reference the sequence ends at %d ns, copying at %d", a, b)
	}
	if a, b := task.Rec().Counters(), refTask.Rec().Counters(); !maps.Equal(a, b) {
		t.Fatalf("cache and device counters differ: by reference %v, copying %v", a, b)
	}
}

// TestDropClean drops exactly the clean, unreferenced buffers — the
// buffer-cache half of drop_caches.
func TestDropClean(t *testing.T) {
	bc, task := newTestCache(t, 64)

	for blk := 0; blk < 4; blk++ {
		getRelease(t, bc, task, blk)
	}
	dirty, err := bc.GetNoRead(task, 4)
	if err != nil {
		t.Fatal(err)
	}
	dirty.MarkDirty()
	if err := dirty.Release(); err != nil {
		t.Fatal(err)
	}
	pinned, err := bc.Get(task, 5) // still referenced
	if err != nil {
		t.Fatal(err)
	}

	if dropped := bc.DropClean(); dropped != 4 {
		t.Fatalf("DropClean dropped %d, want 4", dropped)
	}
	if got := bc.ResidentBlocks(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("resident after DropClean = %v, want [4 5]", got)
	}
	if err := pinned.Release(); err != nil {
		t.Fatal(err)
	}
}
