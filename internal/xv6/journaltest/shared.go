package journaltest

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// The tests below are written once and run by the packages of the
// variants they mount, each under its own test names: bentoimpl on Bento
// and the FUSE daemon, vfsimpl on the C-Kernel and, for the journal, on
// ext4, and ext4 on ext4. Each mounts variant under mc through New.

// CommitWritesLogAsOneBatch requires a journal to write a commit's log
// slots as one batch, in flight together, and the commit record beside
// them, and to return once the slots and the record have completed. Run
// it without barriers, as the in-kernel variants are published, so no
// FLUSH hides inside the commit. The mkdir is a commit of four blocks on
// every variant: the C-Kernel's write-back commits one page at a time,
// and with the bypass on no file data enters the log.
func CommitWritesLogAsOneBatch(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	if err := r.M.Mkdir(r.Task, "/d"); err != nil {
		t.Fatal(err)
	}
	if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	r.RequireBatchedLog(t)
}

// CommitCheckpointsInBackground requires a journal to return from a
// commit at its commit record and slots and checkpoint after them, and
// the next commit to write its log slots while that checkpoint runs,
// never over the checkpointed transaction's slots, and its record only
// once the clear has completed; an unmount waits for the last
// checkpoint. Two mkdirs commit back to back first: with the bypass on,
// ext4's sync of the file writes its data back before it commits, by
// when the mkdirs' checkpoint may be over.
func CommitCheckpointsInBackground(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	if err := r.Mkdirs("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	if werr, serr := r.WriteFile(4); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	r.RequireCheckpointOrder(t)
	r.RequireLogOverlap(t)
	r.RequireUnmountDrains(t)
}

// BothRecordBlocksBusy slows every data-region write by a millisecond,
// so each mkdir's checkpoint, which installs the parent directory's
// block, outlasts the next two commits: a commit finds both record
// blocks busy and waits out the earlier clear, and every commit still
// keeps the checkpoint order.
func BothRecordBlocksBusy(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	r.SlowData(time.Millisecond)
	if err := r.Mkdirs("/a", "/b", "/c", "/d"); err != nil {
		t.Fatal(err)
	}
	r.RequireCheckpointOrder(t)
	r.RequireCheckpointWait(t)
}

// OrderedData requires the data bypass's file data to be ordered data,
// on a device whose data writes complete a millisecond late, so that
// only the commit's own wait can keep the data ahead of the commit
// record. Bento's and the C-Kernel's write-back commits as it ends,
// after its data. ext4's joins the compound transaction without
// committing and returns after its data; a sync on a task that lags
// behind it then commits the transaction, and submits its record only
// after that data has completed, though its own log slots could
// complete sooner. Run it with the bypass on.
func OrderedData(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	r.SlowData(time.Millisecond)
	r.RequireOrderedData(t, func(task *kernel.Task) error {
		lag := r.K.NewTask("lagging")
		lag.Clk.AdvanceTo(task.Clk.NowNS())
		if err := r.WriteBack(task, "/f", 8); err != nil {
			return err
		}
		return r.M.FS().Sync(lag)
	})
}

// CreateReportsFailedCommit requires a create and a mkdir whose commit
// fails to return the error, as subtests "create" and "mkdir", on a
// variant whose log commits each operation as it ends: their mutations
// never became durable, so they must not report success. (ext4's
// compound log commits at the next sync, which reports the failure; see
// CommitFaults.)
func CreateReportsFailedCommit(t *testing.T, variant string, mc harness.MountConfig) {
	for _, op := range []struct {
		name string
		do   func(*Rig) error
	}{
		{"create", func(r *Rig) error {
			_, err := r.M.Open(r.Task, "/f", fsapi.OCreate)
			return err
		}},
		{"mkdir", func(r *Rig) error { return r.M.Mkdir(r.Task, "/d") }},
	} {
		t.Run(op.name, func(t *testing.T) {
			r := New(t, variant, mc)
			r.Dev.InjectWriteError(int(r.SB.LogStart) + 1)
			if err := op.do(r); err == nil {
				t.Fatalf("%s returned success although its commit failed", op.name)
			}
		})
	}
}

// A CommitFault is one device write under a journal commit that a test
// fails: see Run.
type CommitFault struct {
	Name string
	slot bool
	blk  func(t *testing.T, r *Rig) int
}

// CommitFaults are a log slot, the last log slot of a transaction of
// three or more blocks while the slots before it are in flight, a commit
// record block and a home block (the inode table).
var CommitFaults = []CommitFault{
	{"log-slot", true, func(_ *testing.T, r *Rig) int { return int(r.SB.LogStart) + 1 }},
	{"last-log-slot", true, func(t *testing.T, r *Rig) int { return New(t, r.variant, r.mc).LastSlot(t) }},
	{"log-header", false, func(_ *testing.T, r *Rig) int { return int(r.SB.LogStart) }},
	{"home", false, func(_ *testing.T, r *Rig) int { return int(r.SB.InodeStart) }},
}

// Run fails f's write under the commit of a mkdir and a sync, and
// requires the failure to reach the caller and the commit to give back
// every buffer it held: once the fault clears, the unmount succeeds (the
// C-Kernel's and ext4's fails while a buffer is still referenced) and
// Bento's ownership checker has recorded nothing. A failed log slot must
// also leave the transaction uncommitted: once the fault clears, neither
// record block holds a record and the image checks clean.
func (f CommitFault) Run(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	r.Dev.InjectWriteError(f.blk(t, r))
	if err := r.Mkdirs("/d"); err == nil {
		t.Fatal("no operation saw the injected write error")
	}
	r.Dev.ClearFaults()
	if f.slot {
		r.RequireUncommitted(t)
	}
	r.Unmount(t)
}

// pattern fills a deterministic, offset-identifiable byte stream.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/4096)
	}
	return out
}

// dataResident lists the data-region blocks resident in r's buffer cache.
func (r *Rig) dataResident() []int {
	var out []int
	for _, blk := range r.BufferCache().ResidentBlocks() {
		if blk >= int(r.SB.DataStart) {
			out = append(out, blk)
		}
	}
	return out
}

// ColdReadPopulatesOnlyPageCache is the acceptance test for single-copy
// caching on an in-kernel mount, with the background I/O subsystem on so
// the cold read fills through read-ahead's fill batch: after Sync and
// DropCaches, a cold sequential read of a regular file goes device to
// page cache, and the buffer cache ends the pass holding metadata only —
// zero of the file's data blocks. With the bypass off (the control) the
// file's blocks are all resident.
func ColdReadPopulatesOnlyPageCache(t *testing.T, variant string, mc harness.MountConfig) {
	const fileBlocks = layout.NDirect // direct pointers only: no indirect metadata in the data region
	r := New(t, variant, mc)
	r.M.EnableIODaemon(iodaemon.Config{})
	m, task := r.M, r.Task
	want := pattern(fileBlocks * layout.BlockSize)
	if err := m.WriteFile(task, "/f", want); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches() // reaches Bento's capability cache through the shim
	if n := r.BufferCache().Len(); n != 0 {
		t.Fatalf("buffer cache not cold after Sync+DropCaches: %d resident", n)
	}

	before := task.Rec().Counters()["direct_reads"]
	got, err := m.ReadFile(task, "/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cold read returned wrong content (err=%v)", err)
	}
	// The cold read's pages are filled by one fill batch, which counts
	// its direct reads like a reader: one per data page with the bypass
	// on, none without it.
	c := task.Rec().Counters()
	wantDirect := int64(0)
	if mc.Bypass {
		wantDirect = fileBlocks
	}
	if n := c["direct_reads"] - before; n != wantDirect {
		t.Fatalf("cold read of %d pages made %d direct reads, want %d", fileBlocks, n, wantDirect)
	}
	// The file uses direct pointers only, so the sole legitimate
	// data-region resident after the cold pass is the root directory's
	// content block (directories are metadata).
	resident := r.dataResident()
	if mc.Bypass {
		if len(resident) > 1 {
			t.Fatalf("bypass on: %d data-region blocks resident in the buffer cache (%v), want at most the root directory block",
				len(resident), resident)
		}
		if c["direct_writes"] == 0 {
			t.Fatalf("direct write path unused: %v", c)
		}
	} else if len(resident) < fileBlocks {
		t.Fatalf("bypass off (control): only %d data-region blocks resident, want >= %d — the control lost its power",
			len(resident), fileBlocks)
	}
	// The direct path borrows no buffers, so it can leak none.
	r.Unmount(t)
}

// WritesNeverEnterBufferCache covers the write half of the bypass:
// streaming a file out through write-back leaves no data blocks in the
// buffer cache, while metadata (inode, bitmap, log) still lands there.
// Run it with the bypass on.
func WritesNeverEnterBufferCache(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	r.M.EnableIODaemon(iodaemon.Config{})
	m, task := r.M, r.Task
	// Indirect range on purpose: the indirect block is metadata and MAY
	// be cached; the data leaves must not be.
	const fileBlocks = layout.NDirect + 4
	want := pattern(fileBlocks * layout.BlockSize)
	if err := m.WriteFile(task, "/big", want); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	if r.BufferCache().Len() == 0 {
		t.Fatal("no metadata resident after writes — assertion below would be vacuous")
	}
	// Data region residents: root dir block + the file's one indirect
	// block. The 16 data leaves must all be absent.
	if n := len(r.dataResident()); n > 2 {
		t.Fatalf("%d data-region blocks resident after writing %d data blocks, want <= 2 (root dir + indirect)",
			n, fileBlocks)
	}
	if task.Rec().Counters()["direct_writes"] == 0 {
		t.Fatal("write-back performed no direct writes")
	}
	got, err := m.ReadFile(task, "/big")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read-back mismatch (err=%v)", err)
	}
}

// SubBlockWritesAndTruncate drives the bounce-buffer paths of the
// bypass, and the buffered ones beside them: unaligned writes merge
// with device content (zeros on fresh blocks), partial truncate zeroes
// the tail, holes read as zeros.
func SubBlockWritesAndTruncate(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	m, task := r.M, r.Task
	f, err := m.Open(task, "/odd", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 0)
	writeAt := func(off int64, data []byte) {
		t.Helper()
		if _, err := f.PWrite(task, data, off); err != nil {
			t.Fatal(err)
		}
		if grow := off + int64(len(data)); grow > int64(len(model)) {
			model = append(model, make([]byte, grow-int64(len(model)))...)
		}
		copy(model[off:], data)
	}
	rng := rand.New(rand.NewSource(42))
	// Unaligned fragments, overwrites, and a hole (write past EOF).
	writeAt(100, pattern(3000))
	writeAt(4096*2+17, pattern(5000))
	writeAt(0, pattern(4096))
	writeAt(4096*5+1000, []byte("beyond a hole"))
	for i := 0; i < 20; i++ {
		off := rng.Int63n(4096 * 6)
		writeAt(off, pattern(int(rng.Int63n(2000))+1))
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	got, err := m.ReadFile(task, "/odd")
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("odd-offset read-back mismatch (err=%v, len got=%d want=%d)", err, len(got), len(model))
	}

	// Partial truncate: the tail of the final block is zeroed on device.
	cut := int64(len(model) - 1500)
	if err := f.Truncate(task, cut); err != nil {
		t.Fatal(err)
	}
	model = model[:cut]
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	// Re-extend over the zeroed tail and confirm zeros, not stale bytes.
	if err := f.Truncate(task, cut+800); err != nil {
		t.Fatal(err)
	}
	model = append(model, make([]byte, 800)...)
	m.DropCaches()
	got, err = m.ReadFile(task, "/odd")
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("post-truncate read-back mismatch (err=%v)", err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
}

// PartialTruncateUnmapsTail: truncating to a non-zero size frees the
// whole blocks past the new end and unmaps them. A file spanning direct
// and indirect blocks is cut to 5.5 blocks and regrown past its old end:
// the gap reads as zeros (not the freed blocks' old bytes), and a
// truncate to zero frees exactly what the file held (no double free), so
// the free-block count is back where it started.
func PartialTruncateUnmapsTail(t *testing.T, variant string, mc harness.MountConfig) {
	const bs = layout.BlockSize
	r := New(t, variant, mc)
	m, task := r.M, r.Task
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	free := func() int64 {
		t.Helper()
		if err := m.Sync(task); err != nil {
			t.Fatal(err)
		}
		st, err := m.StatFS(task)
		if err != nil {
			t.Fatal(err)
		}
		return st.FreeBlocks
	}
	start := free()

	const blocks = layout.NDirect + 8 // 12 direct, 8 behind the indirect block
	if _, err := f.PWrite(task, bytes.Repeat([]byte{0xAB}, blocks*bs), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	cut := int64(5*bs + bs/2)
	if err := f.Truncate(task, cut); err != nil {
		t.Fatalf("truncate to %d: %v", cut, err)
	}
	tail := bytes.Repeat([]byte{0xCD}, bs)
	regrow := int64((blocks + 2) * bs)
	if _, err := f.PWrite(task, tail, regrow); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	got := make([]byte, regrow+bs)
	if n, err := f.PRead(task, got, 0); err != nil || n != len(got) {
		t.Fatalf("read back %d bytes: %v", n, err)
	}
	if !bytes.Equal(got[:cut], bytes.Repeat([]byte{0xAB}, int(cut))) {
		t.Fatal("the kept 5.5 blocks changed")
	}
	if i := bytes.IndexFunc(got[cut:regrow], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("byte %d of the regrown gap reads %#x, want zeros", cut+int64(i), got[cut+int64(i)])
	}
	if !bytes.Equal(got[regrow:], tail) {
		t.Fatal("the regrown tail block lost its contents")
	}
	if err := f.Truncate(task, 0); err != nil {
		t.Fatalf("truncate to 0: %v", err)
	}
	if end := free(); end != start {
		t.Fatalf("%d free blocks after truncate to 0, started with %d", end, start)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
}

// FailedWriteRetryMergesZeros: balloc skips the journaled zeroing for
// bypass data leaves, so a leaf whose allocating direct write fails
// stays mapped with its previous life's bytes on the device. The retry
// (fresh=false) must merge against zeros — the block holds no committed
// file bytes — or a later size extension would expose the old content
// as file data. Run it with the bypass on.
func FailedWriteRetryMergesZeros(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	m, task, dev := r.M, r.Task, r.Dev

	// Plant recognizable bytes in a data block, then free it so the
	// allocation rotor hands the same block to the next writer.
	junk := bytes.Repeat([]byte{0xDD}, layout.BlockSize)
	if err := m.WriteFile(task, "/junk", junk); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	// Find the junk file's data block: the one data-region block on the
	// device that holds its page (the bypass logs no data).
	victim := -1
	buf := make([]byte, layout.BlockSize)
	for blk := int(r.SB.DataStart); blk < dev.Blocks(); blk++ {
		if err := dev.Read(vclock.NewClock(), blk, buf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf, junk) {
			if victim >= 0 {
				t.Fatalf("blocks %d and %d both hold the junk page", victim, blk)
			}
			victim = blk
		}
	}
	if victim < 0 {
		t.Fatal("no data block holds the junk page")
	}
	if err := m.Unlink(task, "/junk"); err != nil {
		t.Fatal(err)
	}

	// The next data-leaf allocation reuses the victim block; its first
	// direct write fails, leaving it mapped but never zeroed.
	dev.InjectWriteError(victim)
	f, err := m.Open(task, "/b", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	head := bytes.Repeat([]byte{0x11}, 100)
	if _, err := f.PWrite(task, head, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err == nil {
		t.Fatal("FSync succeeded despite the injected write error — the victim block was not reused; the regression is untested")
	}

	// Clear the fault; the page is still dirty, so the retry rewrites
	// the block, then a later write extends the size over its tail.
	dev.ClearFaults()
	if err := f.FSync(task); err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	if _, err := f.PWrite(task, []byte{0x22}, 4500); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	got, err := m.ReadFile(task, "/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], head) || got[4500] != 0x22 {
		t.Fatal("written bytes corrupted")
	}
	for i := 100; i < 4500; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d = %#x, want 0 — the failed write's retry merged the freed block's old content", i, got[i])
		}
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
}

// DropCachesEmptiesBufferCache: after a sync every buffer is clean, so
// DropCaches must leave the buffer cache empty — that is what makes the
// stream scenario's "cold" pass genuinely cold.
func DropCachesEmptiesBufferCache(t *testing.T, variant string, mc harness.MountConfig) {
	r := New(t, variant, mc)
	for i := 0; i < 8; i++ {
		if err := r.M.WriteFile(r.Task, fmt.Sprintf("/f%d", i), pattern(10000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.M.Sync(r.Task); err != nil {
		t.Fatal(err)
	}
	if r.BufferCache().Len() == 0 {
		t.Fatal("setup left no metadata resident")
	}
	r.M.DropCaches()
	if n := r.BufferCache().Len(); n != 0 {
		t.Fatalf("DropCaches left %d buffers resident", n)
	}
}

// MixedWorkloadDeterministic runs an identical mixed metadata/data
// workload twice on fresh mounts, with the background I/O subsystem on,
// and requires bit-equal virtual time, trace counters and trace events —
// neither data path may leak host state (map order, allocation
// addresses) into the simulation.
func MixedWorkloadDeterministic(t *testing.T, variant string, mc harness.MountConfig) {
	run := func() (int64, *trace.Recorder) {
		r := New(t, variant, mc)
		r.Dev.SetRecorder(r.K.Recorder())
		r.M.EnableIODaemon(iodaemon.Config{})
		m, task := r.M, r.Task
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("/mix%d", i)
			if err := m.WriteFile(task, name, pattern(int(rng.Int63n(40000))+1)); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := m.Mkdir(task, fmt.Sprintf("/d%d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Sync(task); err != nil {
			t.Fatal(err)
		}
		m.DropCaches()
		for i := 0; i < 6; i++ {
			if _, err := m.ReadFile(task, fmt.Sprintf("/mix%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Unlink(task, "/mix3"); err != nil {
			t.Fatal(err)
		}
		r.Unmount(t)
		return task.Clk.NowNS(), r.K.Recorder()
	}
	clk1, rec1 := run()
	clk2, rec2 := run()
	if clk1 != clk2 {
		t.Fatalf("virtual time diverged: %d vs %d", clk1, clk2)
	}
	if c1, c2 := rec1.Counters(), rec2.Counters(); !maps.Equal(c1, c2) {
		t.Fatalf("trace counters diverged:\nrun1: %v\nrun2: %v", c1, c2)
	}
	if e1, e2 := rec1.Events(), rec2.Events(); !slices.Equal(e1, e2) {
		t.Fatalf("trace events diverged: %d vs %d events", len(e1), len(e2))
	}
}

// LogCarriesNoData: with the bypass on, a large synced write journals
// metadata only. Without it, every one of the file's blocks is logged at
// least once, so the bypass must log at least that many blocks fewer
// (journal_blocks). It counts logged blocks, not device writes: the
// C-Kernel commits each page's write-back by itself, and the metadata of
// those commits dominates its device writes on either data path.
func LogCarriesNoData(t *testing.T, variant string) {
	const pages = 256 // 1 MiB
	logged := func(bypass bool) int64 {
		r := New(t, variant, harness.MountConfig{Bypass: bypass})
		if err := r.M.WriteFile(r.Task, "/big", make([]byte, pages*layout.BlockSize)); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Sync(r.Task); err != nil {
			t.Fatal(err)
		}
		return r.K.Recorder().Counters()["journal_blocks"]
	}
	if buffered, direct := logged(false), logged(true); buffered-direct < pages {
		t.Fatalf("the bypass logged %d blocks and the buffered path %d: want at least the file's %d blocks fewer",
			direct, buffered, pages)
	}
}

// recName names the link a directory filled by fillDir holds at record
// rec.
func recName(rec int) string { return fmt.Sprintf("r%03d", rec) }

// fillDir makes directory dir and fills its records up to, not
// including, end: "." and ".." at 0 and 1, the file "t" at 2, and a
// hard link to t named recName(rec) at every record rec from 3 on. The
// links share one inode, so freeing one of their records frees no
// inode and the next create allocates the same inode whatever record it
// lands in. It syncs at the end.
func (r *Rig) fillDir(t testing.TB, dir string, end int) {
	t.Helper()
	if err := r.M.Mkdir(r.Task, dir); err != nil {
		t.Fatal(err)
	}
	if err := r.M.WriteFile(r.Task, dir+"/t", nil); err != nil {
		t.Fatal(err)
	}
	for rec := 3; rec < end; rec++ {
		if err := r.M.Link(r.Task, dir+"/t", dir+"/"+recName(rec)); err != nil {
			t.Fatalf("link record %d: %v", rec, err)
		}
	}
	if err := r.M.Sync(r.Task); err != nil {
		t.Fatal(err)
	}
}

// requireListing requires dir to list want, in order: readdir walks the
// records in offset order, so each name's place is its record's.
func (r *Rig) requireListing(t testing.TB, dir string, want []string) {
	t.Helper()
	ents, err := r.M.ReadDir(r.Task, dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(ents))
	for i, e := range ents {
		got[i] = e.Name
	}
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is %q, want %q (%d entries, want %d)", dir, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d entries, want %d", dir, len(got), len(want))
	}
}

// CreateCostIsPerBlock requires a create's free-slot search to cost one
// buffer-cache lookup per directory block, not one per record: in a
// full one-block directory with one free record, a create landing in
// its last record must take the same virtual time as one landing in
// record 3. The two mounts differ only in which link was unlinked, and
// each create allocates the same inode.
func CreateCostIsPerBlock(t *testing.T, variant string, mc harness.MountConfig) {
	const recs = layout.BlockSize / layout.DirentSize
	cost := func(free int) int64 {
		r := New(t, variant, mc)
		r.fillDir(t, "/d", recs)
		if err := r.M.Unlink(r.Task, "/d/"+recName(free)); err != nil {
			t.Fatal(err)
		}
		if err := r.M.Sync(r.Task); err != nil {
			t.Fatal(err)
		}
		// Let the journal's checkpoint finish before the timed create.
		r.Task.Clk.AdvanceTo(r.Task.Clk.NowNS() + int64(time.Second))
		start := r.Task.Clk.NowNS()
		f, err := r.M.Open(r.Task, "/d/new", fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.M.Close(r.Task, f); err != nil {
			t.Fatal(err)
		}
		took := r.Task.Clk.NowNS() - start
		want := []string{"t"}
		for rec := 3; rec < recs; rec++ {
			if rec == free {
				want = append(want, "new")
			} else {
				want = append(want, recName(rec))
			}
		}
		r.requireListing(t, "/d", want)
		r.Fsck(t)
		return took
	}
	if near, far := cost(3), cost(recs-1); near != far {
		t.Fatalf("a create into record 3 took %d ns and into record %d %d ns: the free-slot search costs per record", near, recs-1, far)
	}
}

// MultiBlockDirectory fills a directory three blocks long, frees records
// in its first and third blocks, and requires creates to take the lowest
// free record each and then extend the directory, an unlink of a name
// in the third block to clear that name's record (ext4 finds it through
// its index, then by offset), and rmdir to see the directory as
// non-empty while a live record is left in its third block only. The
// image checks clean after each step.
func MultiBlockDirectory(t *testing.T, variant string, mc harness.MountConfig) {
	const recs = 3 * layout.BlockSize / layout.DirentSize
	r := New(t, variant, mc)
	r.fillDir(t, "/d", recs)
	names := make([]string, recs+1) // names[rec]; "" is a free record
	names[2] = "t"
	for rec := 3; rec < recs; rec++ {
		names[rec] = recName(rec)
	}
	listing := func() []string {
		var want []string
		for _, n := range names {
			if n != "" {
				want = append(want, n)
			}
		}
		return want
	}
	for _, rec := range []int{150, 40} {
		if err := r.M.Unlink(r.Task, "/d/"+recName(rec)); err != nil {
			t.Fatal(err)
		}
		names[rec] = ""
	}
	for i, rec := range []int{40, 150, recs} {
		name := fmt.Sprintf("n%d", i)
		if err := r.M.WriteFile(r.Task, "/d/"+name, nil); err != nil {
			t.Fatal(err)
		}
		names[rec] = name
	}
	r.requireListing(t, "/d", listing())
	if st, err := r.M.Stat(r.Task, "/d"); err != nil || st.Size != (recs+1)*layout.DirentSize {
		t.Fatalf("directory size %d (err %v), want %d", st.Size, err, (recs+1)*layout.DirentSize)
	}
	r.Fsck(t)

	// A name in the third block: its own record, not another, is freed,
	// and the next create reuses it.
	if err := r.M.Unlink(r.Task, "/d/"+recName(170)); err != nil {
		t.Fatal(err)
	}
	names[170] = ""
	r.requireListing(t, "/d", listing())
	if err := r.M.WriteFile(r.Task, "/d/n3", nil); err != nil {
		t.Fatal(err)
	}
	names[170] = "n3"
	r.requireListing(t, "/d", listing())
	r.Fsck(t)

	// Empty the directory but for one record of the third block.
	const last = 160
	for rec, n := range names {
		if n != "" && rec != last {
			if err := r.M.Unlink(r.Task, "/d/"+n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.M.Rmdir(r.Task, "/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir with record %d live = %v, want ErrNotEmpty", last, err)
	}
	if err := r.M.Unlink(r.Task, "/d/"+names[last]); err != nil {
		t.Fatal(err)
	}
	if err := r.M.Rmdir(r.Task, "/d"); err != nil {
		t.Fatal(err)
	}
	r.Fsck(t)
}
