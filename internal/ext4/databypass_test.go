package ext4_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

func newExt4Bypass(t *testing.T, bypass bool) (*kernel.Mount, *kernel.Task, *ext4.FS) {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16384, Model: model})
	task := k.NewTask("mkfs")
	if err := ext4.Mkfs(task, dev, 1024); err != nil {
		t.Fatal(err)
	}
	if err := k.Register(ext4.Type{Cfg: ext4.Config{DataBypass: bypass}}); err != nil {
		t.Fatal(err)
	}
	m, err := k.Mount(task, "ext4", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableIODaemon(iodaemon.Config{})
	return m, task, m.FS().(*ext4.FS)
}

// TestExt4DataBypassSingleCopy: cold reads and write-back of regular
// file data keep the journal's buffer cache metadata-only, demoting the
// mount from data=journal to writeback-style semantics.
func TestExt4DataBypassSingleCopy(t *testing.T) {
	m, task, fs := newExt4Bypass(t, true)
	want := make([]byte, layout.NDirect*layout.BlockSize)
	for i := range want {
		want[i] = byte(i * 11)
	}
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
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cold read mismatch (err=%v)", err)
	}
	dataStart := int(fs.DataStart())
	var dataResident []int
	for _, blk := range fs.BufferCache().ResidentBlocks() {
		if blk >= dataStart {
			dataResident = append(dataResident, blk)
		}
	}
	if len(dataResident) > 1 { // at most the root directory block
		t.Fatalf("%d data-region blocks resident after cold read (%v)", len(dataResident), dataResident)
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
}

// TestExt4DataBypassUnalignedCorrectness mirrors the vfsimpl bounce
// tests on the ext4 comparator: sub-block writes, overwrites, holes,
// and partial truncates round-trip through the direct path.
func TestExt4DataBypassUnalignedCorrectness(t *testing.T) {
	m, task, _ := newExt4Bypass(t, true)
	f, err := m.Open(task, "/odd", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
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
	rng := rand.New(rand.NewSource(11))
	frag := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(256))
		}
		return out
	}
	writeAt(300, frag(5000))
	writeAt(4096*3+9, frag(100))
	writeAt(4096*6, frag(4096)) // leaves a hole over blocks 4..5
	for i := 0; i < 15; i++ {
		writeAt(rng.Int63n(4096*7), frag(int(rng.Int63n(3000))+1))
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(task, int64(len(model)-700)); err != nil {
		t.Fatal(err)
	}
	model = model[:len(model)-700]
	m.DropCaches()
	got, err := m.ReadFile(task, "/odd")
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("read-back mismatch (err=%v, len got=%d want=%d)", err, len(got), len(model))
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
}

// TestExt4DataBypassDeterministic: same mixed workload, two fresh
// mounts, identical virtual time, trace counters and trace events.
func TestExt4DataBypassDeterministic(t *testing.T) {
	run := func() (int64, *trace.Recorder) {
		model := costmodel.Default()
		k := kernel.New(model)
		k.SetRecorder(trace.New())
		dev := blockdev.MustNew(blockdev.Config{Blocks: 16384, Model: model})
		dev.SetRecorder(k.Recorder())
		task := k.NewTask("mix")
		if err := ext4.Mkfs(task, dev, 1024); err != nil {
			t.Fatal(err)
		}
		if err := k.Register(ext4.Type{Cfg: ext4.Config{DataBypass: true, NoBarriers: true}}); err != nil {
			t.Fatal(err)
		}
		m, err := k.Mount(task, "ext4", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableIODaemon(iodaemon.Config{})
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5; i++ {
			data := make([]byte, int(rng.Int63n(60000))+1)
			for j := range data {
				data[j] = byte(j ^ i)
			}
			if err := m.WriteFile(task, fmt.Sprintf("/m%d", i), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Sync(task); err != nil {
			t.Fatal(err)
		}
		m.DropCaches()
		for i := 0; i < 5; i++ {
			if _, err := m.ReadFile(task, fmt.Sprintf("/m%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Unmount(task, "/mnt"); err != nil {
			t.Fatal(err)
		}
		return task.Clk.NowNS(), k.Recorder()
	}
	clk1, rec1 := run()
	clk2, rec2 := run()
	if c1, c2 := rec1.Counters(), rec2.Counters(); clk1 != clk2 || !maps.Equal(c1, c2) {
		t.Fatalf("diverged: clk %d vs %d, counters %v vs %v", clk1, clk2, c1, c2)
	}
	if e1, e2 := rec1.Events(), rec2.Events(); !slices.Equal(e1, e2) {
		t.Fatalf("trace events diverged: %d vs %d events", len(e1), len(e2))
	}
}
