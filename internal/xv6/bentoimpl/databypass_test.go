package bentoimpl_test

import (
	"bytes"
	"maps"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// TestBentoDataBypass drives the bypass through the full Bento stack —
// kernel VFS → BentoFS shim → file system → SuperBlock capability — and
// asserts the single-copy property at the capability's buffer cache:
// a cold read of a direct-pointer file leaves no file data resident.
func TestBentoDataBypass(t *testing.T) {
	model := costmodel.Fast()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
		t.Fatal(err)
	}
	cfg := bentoimpl.Config{Policy: bentoimpl.PolicyWriteBack, DataBypass: true}
	if err := bentoimpl.RegisterWith(k, "xv6", cfg); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	m, err := k.Mount(task, "xv6", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableIODaemon(iodaemon.Config{})

	shim := m.FS().(*core.BentoFS)
	bc := shim.SuperBlock().BufferCache()
	dataStart := int(shim.Inner().(*bentoimpl.FS).Super().DataStart)

	want := make([]byte, layout.NDirect*layout.BlockSize)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := m.WriteFile(task, "/f", want); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches() // reaches the capability's cache through the shim
	if n := bc.Len(); n != 0 {
		t.Fatalf("buffer cache not cold after Sync+DropCaches: %d resident", n)
	}

	before := task.Rec().Counters()["direct_reads"]
	got, err := m.ReadFile(task, "/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cold read mismatch (err=%v)", err)
	}
	var dataResident []int
	for _, blk := range bc.ResidentBlocks() {
		if blk >= dataStart {
			dataResident = append(dataResident, blk)
		}
	}
	// Root directory content is the only legitimate data-region block.
	if len(dataResident) > 1 {
		t.Fatalf("%d data-region blocks resident after cold read (%v), want at most the root dir block",
			len(dataResident), dataResident)
	}
	// The cold read's pages are filled by one fill batch, which counts
	// its direct reads like a reader: one per data page read.
	c := task.Rec().Counters()
	if n := c["direct_reads"] - before; n != layout.NDirect {
		t.Fatalf("cold read of %d pages made %d direct reads: %v", layout.NDirect, n, c)
	}
	if c["direct_writes"] == 0 {
		t.Fatalf("direct write path unused: %v", c)
	}

	// The ownership checker must be clean: the direct path borrows no
	// buffers, so it can leak none.
	if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
		t.Fatalf("ownership violations on the direct path: %v", v)
	}
	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
}

// TestBentoDataBypassLogCarriesNoData: with the bypass on, a large
// synced write journals metadata only — the log's commit traffic must
// not scale with the data (the seed journaled every data block twice:
// once into the log region, once home).
func TestBentoDataBypassLogCarriesNoData(t *testing.T) {
	writesFor := func(bypass bool) int64 {
		model := costmodel.Fast()
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 16384, Model: model})
		rec := trace.New()
		dev.SetRecorder(rec)
		if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
			t.Fatal(err)
		}
		cfg := bentoimpl.Config{Policy: bentoimpl.PolicyWriteBack, DataBypass: bypass}
		name := "xv6a"
		if bypass {
			name = "xv6b"
		}
		if err := bentoimpl.RegisterWith(k, name, cfg); err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("w")
		m, err := k.Mount(task, name, "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 256*layout.BlockSize) // 1 MiB
		if err := m.WriteFile(task, "/big", data); err != nil {
			t.Fatal(err)
		}
		if err := m.Sync(task); err != nil {
			t.Fatal(err)
		}
		return rec.Counters()["dev_writes"]
	}
	buffered := writesFor(false)
	direct := writesFor(true)
	// Journal-everything writes each data block at least twice (log copy
	// + install); the bypass writes it once. Requiring a 1.5x reduction
	// leaves headroom for metadata while failing if data re-enters the
	// log.
	if direct*3 > buffered*2 {
		t.Fatalf("bypass device writes = %d, buffered = %d; expected < 2/3 of buffered", direct, buffered)
	}
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
		model := costmodel.Fast()
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
