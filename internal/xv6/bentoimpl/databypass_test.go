package bentoimpl_test

import (
	"bytes"
	"maps"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/journaltest"
	"bento/internal/xv6/layout"
)

// The data-bypass tests below run on Bento here, on the C-Kernel in
// vfsimpl's tests and on ext4 in ext4's.

// TestBentoDataBypass drives the bypass through the full Bento stack —
// kernel VFS → BentoFS shim → file system → SuperBlock capability — and
// checks the single-copy property at the capability's buffer cache.
func TestBentoDataBypass(t *testing.T) {
	journaltest.Run(t, journaltest.BypassRows(harness.VariantBento), journaltest.ColdReadPopulatesOnlyPageCache)
}

func TestDataBypassWritesNeverEnterBufferCache(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantBento}, journaltest.BypassOn, journaltest.WritesNeverEnterBufferCache)
}

// TestSubBlockWritesAndTruncate runs on the FUSE daemon too, whose
// buffered path is its own.
func TestSubBlockWritesAndTruncate(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantBento, harness.VariantFUSE}, journaltest.DataPaths, journaltest.SubBlockWritesAndTruncate)
}

func TestDataBypassFailedWriteRetryMergesZeros(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantBento}, journaltest.BypassOn, journaltest.FailedWriteRetryMergesZeros)
}

func TestDropCachesEmptiesBufferCache(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantBento}, journaltest.DataPaths, journaltest.DropCachesEmptiesBufferCache)
}

func TestMixedWorkloadDeterministic(t *testing.T) {
	journaltest.Each(t, []string{harness.VariantBento}, journaltest.DataPaths, journaltest.MixedWorkloadDeterministic)
}

func TestBentoDataBypassLogCarriesNoData(t *testing.T) {
	journaltest.LogCarriesNoData(t, harness.VariantBento)
}

// plainFS hides bentoimpl's optional interfaces (core.PageLender,
// core.PageWriter, core.Upgradable), as a decorator over core.FileSystem
// does: BentoFS then fills pages through Read and writes them back through
// Write of the flattened run.
type plainFS struct{ core.FileSystem }

// TestBentoByReferenceMatchesCopying: lending pages and handing page
// buffers to the device is invisible above and below — the same bytes in
// the file and on the device, the same virtual time, the same device
// commands — as the copying paths BentoFS falls back to when the file
// system offers neither optional interface. The file has a hole, a partial
// last page, a rewritten page and spans several write transactions.
func TestBentoByReferenceMatchesCopying(t *testing.T) {
	type side struct {
		m    *kernel.Mount
		dev  *blockdev.Device
		task *kernel.Task
		rec  *trace.Recorder // the device's commands
	}
	mount := func(plain bool) side {
		model := costmodel.Default()
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
		rec := trace.New()
		dev.SetRecorder(rec)
		if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
			t.Fatal(err)
		}
		err := core.Register(k, "xv6", func() core.FileSystem {
			fs := bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyWriteBack, DataBypass: true})
			if plain {
				return plainFS{fs}
			}
			return fs
		})
		if err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("test")
		m, err := k.Mount(task, "xv6", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableIODaemon(iodaemon.Config{})
		return side{m, dev, task, rec}
	}
	run := func(s side) []byte {
		const ps = layout.BlockSize
		f, err := s.m.Open(s.task, "/f", fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 70*ps+123)
		for i := range body {
			body[i] = byte(i*7 + i/ps)
		}
		if _, err := f.PWrite(s.task, body[:40*ps], 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.PWrite(s.task, body[44*ps:], 44*ps); err != nil { // pages 40-43: a hole
			t.Fatal(err)
		}
		if err := f.FSync(s.task); err != nil {
			t.Fatal(err)
		}
		if _, err := f.PWrite(s.task, []byte("rewritten"), 3*ps+5); err != nil {
			t.Fatal(err)
		}
		if err := f.FSync(s.task); err != nil {
			t.Fatal(err)
		}
		s.m.DropCaches()
		got := make([]byte, len(body))
		if n, err := f.PRead(s.task, got, 0); err != nil || n != len(body) {
			t.Fatalf("PRead = %d, %v", n, err)
		}
		clear(body[40*ps : 44*ps])
		copy(body[3*ps+5:], "rewritten")
		if !bytes.Equal(got, body) {
			t.Fatal("the file reads back wrong")
		}
		if err := s.m.Close(s.task, f); err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref, cp := mount(false), mount(true)
	if _, ok := ref.m.FS().(*core.BentoFS).Inner().(core.PageWriter); !ok {
		t.Fatal("bentoimpl is not a core.PageWriter")
	}
	if _, ok := cp.m.FS().(*core.BentoFS).Inner().(core.PageLender); ok {
		t.Fatal("plainFS still lends pages")
	}
	run(ref)
	run(cp)
	if a, b := ref.task.Clk.NowNS(), cp.task.Clk.NowNS(); a != b {
		t.Fatalf("virtual time: %d ns by reference, %d ns copying", a, b)
	}
	if a, b := ref.rec.Counters(), cp.rec.Counters(); !maps.Equal(a, b) {
		t.Fatalf("device commands: by reference %v, copying %v", a, b)
	}
	rb, cb := make([]byte, layout.BlockSize), make([]byte, layout.BlockSize)
	for blk := 0; blk < ref.dev.Blocks(); blk++ {
		if err := ref.dev.Read(ref.task.Clk, blk, rb); err != nil {
			t.Fatal(err)
		}
		if err := cp.dev.Read(cp.task.Clk, blk, cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rb, cb) {
			t.Fatalf("device block %d differs between the two paths", blk)
		}
	}
}
