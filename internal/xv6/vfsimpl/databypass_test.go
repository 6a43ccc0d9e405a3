package vfsimpl_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// newBypassEnv mounts the C baseline with the given bypass setting and
// the background I/O subsystem enabled, so cold reads exercise the
// read-ahead fill batch through the same data path as demand reads.
func newBypassEnv(t *testing.T, bypass bool) (*kernel.Mount, *kernel.Task, *vfsimpl.FS) {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
		t.Fatal(err)
	}
	if err := k.Register(vfsimpl.Type{Cfg: vfsimpl.Config{DataBypass: bypass}}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	m, err := k.Mount(task, "xv6vfs", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableIODaemon(iodaemon.Config{})
	return m, task, m.FS().(*vfsimpl.FS)
}

// pattern fills a deterministic, offset-identifiable byte stream.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/4096)
	}
	return out
}

// TestDataBypassColdReadPopulatesOnlyPageCache is the acceptance test
// for single-copy caching: after DropCaches, a cold sequential read of
// a regular file goes device → page cache, and the buffer cache ends
// the pass holding metadata only — zero of the file's data blocks.
func TestDataBypassColdReadPopulatesOnlyPageCache(t *testing.T) {
	const fileBlocks = layout.NDirect // direct pointers only: no indirect metadata in the data region
	for _, bypass := range []bool{true, false} {
		t.Run(fmt.Sprintf("bypass=%v", bypass), func(t *testing.T) {
			m, task, fs := newBypassEnv(t, bypass)
			want := pattern(fileBlocks * layout.BlockSize)
			if err := m.WriteFile(task, "/f", want); err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(task); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			if n := fs.BufferCache().Len(); n != 0 {
				t.Fatalf("buffer cache not cold after Sync+DropCaches: %d resident", n)
			}

			before := task.Rec().Counters()["direct_reads"]
			got, err := m.ReadFile(task, "/f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("cold read returned wrong content")
			}
			// The cold read's pages are filled by one fill batch, which
			// counts its direct reads like a reader: one per data page
			// with the bypass on, none without it.
			wantDirect := int64(0)
			if bypass {
				wantDirect = fileBlocks
			}
			if n := task.Rec().Counters()["direct_reads"] - before; n != wantDirect {
				t.Fatalf("cold read of %d pages made %d direct reads, want %d", fileBlocks, n, wantDirect)
			}

			// The file uses direct pointers only, so the sole legitimate
			// data-region resident after the cold pass is the root
			// directory's content block (directories are metadata).
			dataStart := int(fs.Super().DataStart)
			var dataResident []int
			for _, blk := range fs.BufferCache().ResidentBlocks() {
				if blk >= dataStart {
					dataResident = append(dataResident, blk)
				}
			}
			if bypass {
				if len(dataResident) > 1 {
					t.Fatalf("bypass on: %d data-region blocks resident in the buffer cache (%v), want at most the root directory block",
						len(dataResident), dataResident)
				}
			} else if len(dataResident) < fileBlocks {
				t.Fatalf("bypass off (control): only %d data-region blocks resident, want >= %d — the control lost its power",
					len(dataResident), fileBlocks)
			}
		})
	}
}

// TestDataBypassWritesNeverEnterBufferCache covers the write half of the
// seam: streaming a file out through write-back leaves no data blocks in
// the buffer cache, while metadata (inode, bitmap, log) still lands there.
func TestDataBypassWritesNeverEnterBufferCache(t *testing.T) {
	m, task, fs := newBypassEnv(t, true)
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
	if fs.BufferCache().Len() == 0 {
		t.Fatal("no metadata resident after writes — assertion below would be vacuous")
	}
	dataStart := int(fs.Super().DataStart)
	var dataResident int
	for _, blk := range fs.BufferCache().ResidentBlocks() {
		if blk >= dataStart {
			dataResident++
		}
	}
	// Data region residents: root dir block + the file's one indirect
	// block. The 16 data leaves must all be absent.
	if dataResident > 2 {
		t.Fatalf("%d data-region blocks resident after writing %d data blocks, want <= 2 (root dir + indirect)",
			dataResident, fileBlocks)
	}
	if task.Rec().Counters()["direct_writes"] == 0 {
		t.Fatal("write-back performed no direct writes")
	}
	got, err := m.ReadFile(task, "/big")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read-back mismatch (err=%v)", err)
	}
}

// TestDataBypassSubBlockAndTruncate drives the bounce-buffer paths:
// unaligned writes merge with device content (zeros on fresh blocks),
// partial truncate zeroes the tail directly, holes read as zeros.
func TestDataBypassSubBlockAndTruncate(t *testing.T) {
	m, task, _ := newBypassEnv(t, true)
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

// TestDataBypassFailedWriteRetryMergesZeros: balloc skips the journaled
// zeroing for bypass data leaves, so a leaf whose allocating direct
// write fails stays mapped with its previous life's bytes on the
// device. The retry (fresh=false) must merge against zeros — the block
// holds no committed file bytes — or a later size extension would
// expose the old content as file data.
func TestDataBypassFailedWriteRetryMergesZeros(t *testing.T) {
	m, task, fs := newBypassEnv(t, true)
	dev := m.Device()

	// Plant recognizable bytes in a data block, then free it so the
	// allocation rotor hands the same block to the next writer.
	junk := bytes.Repeat([]byte{0xDD}, layout.BlockSize)
	if err := m.WriteFile(task, "/junk", junk); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	// Recover the junk file's data block from the on-disk inode.
	st, err := m.Stat(task, "/junk")
	if err != nil {
		t.Fatal(err)
	}
	super := fs.Super()
	iblk := make([]byte, layout.BlockSize)
	if err := dev.Read(vclock.NewClock(), int(super.InodeBlock(uint32(st.Ino))), iblk); err != nil {
		t.Fatal(err)
	}
	victim := layout.DecodeDinode(iblk[layout.InodeOffset(uint32(st.Ino)):]).Addrs[0]
	if victim == 0 {
		t.Fatal("junk file has no mapped block")
	}
	if err := m.Unlink(task, "/junk"); err != nil {
		t.Fatal(err)
	}

	// The next data-leaf allocation reuses the victim block; its first
	// direct write fails, leaving it mapped but never zeroed.
	dev.InjectWriteError(int(victim))
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

// TestDropCachesEmptiesBufferCache: after a sync every buffer is clean,
// so DropCaches must leave the buffer cache empty — that is what makes
// the stream scenario's "cold" pass genuinely cold.
func TestDropCachesEmptiesBufferCache(t *testing.T) {
	m, task, fs := newBypassEnv(t, true)
	for i := 0; i < 8; i++ {
		if err := m.WriteFile(task, fmt.Sprintf("/f%d", i), pattern(10000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	if fs.BufferCache().Len() == 0 {
		t.Fatal("setup left no metadata resident")
	}
	m.DropCaches()
	if n := fs.BufferCache().Len(); n != 0 {
		t.Fatalf("DropCaches left %d buffers resident", n)
	}
}

// TestDataBypassMixedWorkloadDeterministic runs an identical mixed
// metadata/data workload twice on fresh mounts and requires bit-equal
// virtual time and device traffic — the bypass must not leak host state
// (map order, allocation addresses) into the simulation.
func TestDataBypassMixedWorkloadDeterministic(t *testing.T) {
	run := func() (int64, *trace.Recorder) {
		model := costmodel.Default() // real costs: any divergence is visible
		k := kernel.New(model)
		k.SetRecorder(trace.New())
		dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
		dev.SetRecorder(k.Recorder())
		if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
			t.Fatal(err)
		}
		if err := k.Register(vfsimpl.Type{Cfg: vfsimpl.Config{DataBypass: true}}); err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("mix")
		m, err := k.Mount(task, "xv6vfs", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableIODaemon(iodaemon.Config{})
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
		if err := k.Unmount(task, "/mnt"); err != nil {
			t.Fatal(err)
		}
		return task.Clk.NowNS(), k.Recorder()
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
