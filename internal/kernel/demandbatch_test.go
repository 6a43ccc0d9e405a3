package kernel_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/vclock"
)

// coldReadPages is the demand read under test: 128 KiB, one 32-page
// request of the stream workloads.
const coldReadPages = 32

// coldRead writes a coldReadPages-page file through a blockRig with the
// default cost model (device reads in tens of microseconds, CPU costs in
// hundreds of nanoseconds), drops it from the page cache, and reads it
// back in one PRead on a fresh task. It reports the read's virtual time,
// the bytes read and its error; prep runs just before the read.
func coldRead(t *testing.T, iod bool, prep func(r *blockRig, f fsapi.Ino)) (time.Duration, []byte, error) {
	r := newBlockRigModel(t, iod, costmodel.Default())
	f := r.open("/f")
	for pg := int64(0); pg < coldReadPages; pg++ {
		r.pwrite(f, page(byte('a'+pg)), pg*fsapi.PageSize)
	}
	if err := f.FSync(r.task); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Close(r.task, f); err != nil {
		t.Fatal(err)
	}
	r.m.DropCaches()

	rd := r.task.Kernel().NewTaskWithClock("reader", vclock.NewClockAt(r.task.Clk.Now()))
	f, err := r.m.Open(rd, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(r, f.Ino())
	}
	buf := make([]byte, coldReadPages*fsapi.PageSize)
	start := rd.Clk.Now()
	n, err := f.PRead(rd, buf, 0)
	return rd.Clk.Now() - start, buf[:n], err
}

// hotRead is the CPU-only cost of the same 128 KiB PRead with every page
// resident: the syscall, the page-cache lookups and the copy.
func hotRead(t *testing.T) time.Duration {
	r := newBlockRigModel(t, true, costmodel.Default())
	f := r.open("/f")
	r.pwrite(f, make([]byte, coldReadPages*fsapi.PageSize), 0)
	buf := make([]byte, coldReadPages*fsapi.PageSize)
	start := r.task.Clk.Now()
	if _, err := f.PRead(r.task, buf, 0); err != nil {
		t.Fatal(err)
	}
	return r.task.Clk.Now() - start
}

// TestColdReadIsOneBatch: on a mount with an I/O daemon, a cold 128 KiB
// PRead submits its 32 missing pages as one batch, so it costs the device
// time of ⌈32 / DevChannels⌉ reads plus CPU — not 32 reads one after
// another, which is what filling each miss in turn costs.
func TestColdReadIsOneBatch(t *testing.T) {
	model := costmodel.Default()
	got, data, err := coldRead(t, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < coldReadPages; pg++ {
		if !bytes.Equal(data[pg*fsapi.PageSize:(pg+1)*fsapi.PageSize], page(byte('a'+pg))) {
			t.Fatalf("page %d reads back wrong", pg)
		}
	}
	rounds := (coldReadPages + model.DevChannels - 1) / model.DevChannels
	cpu := hotRead(t) + coldReadPages*model.AsyncFillPage
	if limit := time.Duration(rounds)*model.DevRead(fsapi.PageSize) + cpu; got > limit {
		t.Fatalf("cold 128 KiB read took %v; want at most %d device reads plus CPU = %v (32 serial reads: %v)",
			got, rounds, limit, coldReadPages*model.DevRead(fsapi.PageSize))
	}
}

// TestColdReadWithoutDaemonIsSerial: a mount without an I/O daemon (the
// FUSE configuration) keeps filling each miss synchronously, so the same
// read pays all 32 device reads in turn.
func TestColdReadWithoutDaemonIsSerial(t *testing.T) {
	got, _, err := coldRead(t, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial := coldReadPages * costmodel.Default().DevRead(fsapi.PageSize); got < serial {
		t.Fatalf("cold 128 KiB read without a daemon took %v; want at least 32 serial device reads = %v", got, serial)
	}
}

// TestColdReadBatchErrorSurfaces: a device read error on a page in the
// middle of the batch fails the PRead with that error; the failed page
// is not resident, and every page before it was read correctly.
func TestColdReadBatchErrorSurfaces(t *testing.T) {
	const bad = coldReadPages / 2
	var r *blockRig
	var ino fsapi.Ino
	_, data, err := coldRead(t, true, func(rig *blockRig, i fsapi.Ino) {
		r, ino = rig, i
		rig.fs.dev.InjectReadError(rig.fs.block(i, bad))
	})
	if !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("PRead over a bad block = %v, want ErrIO", err)
	}
	if r.m.PageResident(ino, bad) {
		t.Fatalf("page %d is resident after its read failed", bad)
	}
	if len(data) != bad*fsapi.PageSize {
		t.Fatalf("PRead returned %d bytes, want the %d pages before the bad one", len(data), bad)
	}
	for pg := 0; pg < bad; pg++ {
		if !r.m.PageResident(ino, int64(pg)) {
			t.Fatalf("page %d before the bad one is not resident", pg)
		}
		if !bytes.Equal(data[pg*fsapi.PageSize:(pg+1)*fsapi.PageSize], page(byte('a'+pg))) {
			t.Fatalf("page %d before the bad one reads back wrong", pg)
		}
	}
}

// TestColdReadWaitsForFailedBatchRead: when the batch's read of the first
// page fails, the reader retries that page only once the failed read has
// completed, as a Linux reader waits on the page lock: the read costs two
// device reads, not one read issued twice at the same moment.
func TestColdReadWaitsForFailedBatchRead(t *testing.T) {
	m, h, task := newIODMount(t)
	writeFilePages(t, m, task, "/f", 4)
	m.DropCaches()
	h.setFailPage(0)
	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	start := task.Clk.Now()
	if _, err := f.PRead(task, make([]byte, 4*fsapi.PageSize), 0); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("PRead over a failing first page = %v, want ErrIO", err)
	}
	if got := task.Clk.Now() - start; got < 2*h.pageCost {
		t.Fatalf("failed cold read took %v; want at least the failed batch read plus the retry = %v", got, 2*h.pageCost)
	}
}
