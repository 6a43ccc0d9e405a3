package netstore_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/netstore"
	"bento/internal/storagetest"
	"bento/internal/trace"
	"bento/internal/vclock"
)

func netDev(blocks int, cfg netstore.Config) *blockdev.Device {
	model := cfg.Model
	if model == nil {
		model = costmodel.Default()
	}
	cfg.Name = "net0"
	cfg.BlockSize = 4096
	cfg.Blocks = blocks
	cfg.Model = model
	return blockdev.MustNew(blockdev.Config{
		Name:    "net0",
		Blocks:  blocks,
		Model:   model,
		Backend: netstore.New(cfg),
	})
}

// TestConformance runs the shared backend suite at the default object
// and cache geometry (no eviction pressure at suite working sets).
func TestConformance(t *testing.T) {
	storagetest.Run(t, func(blocks int) *blockdev.Device {
		return netDev(blocks, netstore.Config{})
	})
}

// TestConformanceUnderCachePressure reruns the suite with a cache far
// smaller than the working set, so read-modify-write fills and eviction
// write-back run inside every scenario — the one-sided crash contract
// and determinism must hold there too.
func TestConformanceUnderCachePressure(t *testing.T) {
	storagetest.Run(t, func(blocks int) *blockdev.Device {
		return netDev(blocks, netstore.Config{ObjectBlocks: 4, CacheObjects: 2})
	})
}

// metricsDev builds a recorder-attached device so tests can assert on
// the netstore counters.
func metricsDev(t *testing.T, blocks int, cfg netstore.Config) (*blockdev.Device, *trace.Recorder, *vclock.Clock) {
	t.Helper()
	d := netDev(blocks, cfg)
	rec := trace.New()
	d.SetRecorder(rec)
	return d, rec, vclock.NewClock()
}

func write(t *testing.T, d *blockdev.Device, clk *vclock.Clock, blk int, b byte) {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	if err := d.Write(clk, blk, buf); err != nil {
		t.Fatal(err)
	}
}

// TestReadThrough: the first read of an object pays one GET; the
// object's other blocks then hit the cache with no further traffic.
func TestReadThrough(t *testing.T) {
	d, rec, clk := metricsDev(t, 64, netstore.Config{})
	// Make object 0 durable, then go cold.
	for blk := 0; blk < 16; blk++ {
		write(t, d, clk, blk, byte(blk+1))
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	d.DropBackendCache()
	before := rec.Counters()

	buf := make([]byte, d.BlockSize())
	for blk := 0; blk < 16; blk++ {
		if err := d.Read(clk, blk, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(blk+1) {
			t.Fatalf("blk %d: got %#x after read-through", blk, buf[0])
		}
	}
	after := rec.Counters()
	if gets := after["net_gets"] - before["net_gets"]; gets != 1 {
		t.Fatalf("net_gets = %d for 16 same-object reads, want 1", gets)
	}
	if hits := after["net_cache_hits"] - before["net_cache_hits"]; hits != 15 {
		t.Fatalf("net_cache_hits = %d, want 15", hits)
	}
	if misses := after["net_cache_misses"] - before["net_cache_misses"]; misses != 1 {
		t.Fatalf("net_cache_misses = %d, want 1", misses)
	}
}

// TestPutCoalescing: sixteen dirty blocks of one object flush as a
// single whole-object PUT.
func TestPutCoalescing(t *testing.T) {
	d, rec, clk := metricsDev(t, 64, netstore.Config{})
	for blk := 0; blk < 16; blk++ {
		write(t, d, clk, blk, 0xAB)
	}
	if n := d.DirtyBlocks(); n != 16 {
		t.Fatalf("DirtyBlocks = %d, want 16", n)
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["net_puts"] != 1 {
		t.Fatalf("net_puts = %d for one dirty object, want 1", c["net_puts"])
	}
	if c["net_flushes"] != 1 {
		t.Fatalf("net_flushes = %d, want 1", c["net_flushes"])
	}
	if n := d.DirtyBlocks(); n != 0 {
		t.Fatalf("DirtyBlocks = %d after flush, want 0", n)
	}
}

// TestFreshExtentSkipsRMW: writing into an object that has never been
// stored needs no read-modify-write GET.
func TestFreshExtentSkipsRMW(t *testing.T) {
	d, rec, clk := metricsDev(t, 64, netstore.Config{})
	write(t, d, clk, 3, 0x11)
	if c := rec.Counters(); c["net_gets"] != 0 {
		t.Fatalf("net_gets = %d for a fresh-extent write, want 0", c["net_gets"])
	}
	// But a write-miss on a durable object does RMW.
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	d.DropBackendCache()
	write(t, d, clk, 4, 0x22) // same object, now durable and cold
	if c := rec.Counters(); c["net_gets"] != 1 {
		t.Fatalf("net_gets = %d for a write-miss RMW, want 1", c["net_gets"])
	}
	// The RMW preserved the neighbouring block.
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, 3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x11 {
		t.Fatalf("blk 3 = %#x after RMW of its object, want 0x11", buf[0])
	}
}

// TestBoundedParallelism: GETs queue behind NetChannels — with two
// channels and zero streaming cost, four cold fetches issued at the
// same instant complete pairwise at 1x and 2x the request latency.
func TestBoundedParallelism(t *testing.T) {
	model := costmodel.Default()
	model.NetChannels = 2
	model.NetGetBase = 100 * time.Nanosecond
	model.NetPer4K = 0
	s := netstore.New(netstore.Config{
		Name: "net0", BlockSize: 4096, Blocks: 256, Model: model, ObjectBlocks: 4,
	})
	buf := make([]byte, 4096)
	// Make four objects durable, then power-cycle: the cache is cold and
	// every channel idle from time 0.
	for obj := 0; obj < 4; obj++ {
		if _, err := s.SubmitBlock(0, obj*4, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	s.Crash(0, 0)

	want := []int64{100, 100, 200, 200}
	for obj := 0; obj < 4; obj++ {
		done, err := s.ReadBlock(0, obj*4, buf)
		if err != nil {
			t.Fatal(err)
		}
		if done != want[obj] {
			t.Fatalf("cold GET %d completed at %d, want %d", obj, done, want[obj])
		}
	}
	if depth := s.QueueDepth(150); depth != 2 {
		t.Fatalf("QueueDepth(150) = %d, want 2", depth)
	}
}

// TestEvictionWriteBack: when every resident object is dirty, inserting
// another writes back the least-recently-used one early — and that early
// durability survives a keep-nothing crash.
func TestEvictionWriteBack(t *testing.T) {
	d, rec, clk := metricsDev(t, 64, netstore.Config{ObjectBlocks: 4, CacheObjects: 2})
	write(t, d, clk, 0, 0xA0) // object 0, dirty
	write(t, d, clk, 4, 0xA1) // object 1, dirty
	write(t, d, clk, 8, 0xA2) // object 2: cache full of dirty → evict-PUT object 0
	c := rec.Counters()
	if c["net_evict_puts"] != 1 {
		t.Fatalf("net_evict_puts = %d, want 1", c["net_evict_puts"])
	}
	if n := d.DirtyBlocks(); n != 2 {
		t.Fatalf("DirtyBlocks = %d after eviction write-back, want 2", n)
	}
	d.Crash(0, 42)
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xA0 {
		t.Fatalf("evicted object lost in crash: blk 0 = %#x, want 0xA0", buf[0])
	}
	for _, blk := range []int{4, 8} {
		if err := d.Read(clk, blk, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0 {
			t.Fatalf("staged blk %d survived keep-0 crash without write-back", blk)
		}
	}
}

// TestEvictionVictimIsLRU tells the LRU rule from a lowest-numbered one:
// object 0, touched after object 1, stays cached and staged while object
// 1 is written back, so only object 1's bytes survive a keep-nothing
// crash.
func TestEvictionVictimIsLRU(t *testing.T) {
	d, rec, clk := metricsDev(t, 64, netstore.Config{ObjectBlocks: 4, CacheObjects: 2})
	write(t, d, clk, 0, 0xA0) // object 0, dirty
	write(t, d, clk, 4, 0xA1) // object 1, dirty
	write(t, d, clk, 1, 0xB0) // object 0 again: now the most recently used
	write(t, d, clk, 8, 0xA2) // object 2: evict-PUT object 1, the LRU one
	if n := rec.Counters()["net_evict_puts"]; n != 1 {
		t.Fatalf("net_evict_puts = %d, want 1", n)
	}
	var put []int64
	for _, e := range rec.Events() {
		if e.Name == "net-put" {
			put = append(put, e.A)
		}
	}
	if len(put) != 1 || put[0] != 1 {
		t.Fatalf("PUT objects %v, want [1]", put)
	}
	// Objects 0 and 2 are still staged: blocks 0, 1 and 8.
	if n := d.DirtyBlocks(); n != 3 {
		t.Fatalf("DirtyBlocks = %d after eviction write-back, want 3", n)
	}
	d.Crash(0, 42)
	buf := make([]byte, d.BlockSize())
	for blk, want := range map[int]byte{0: 0, 1: 0, 4: 0xA1, 8: 0} {
		if err := d.Read(clk, blk, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("blk %d = %#x after keep-0 crash, want %#x", blk, buf[0], want)
		}
	}
}

// TestPlugChangesNoBooking: the store never joins reads or writes, so a
// plugged run of contiguous reads, then of contiguous writes (copied and
// owned, submitted from one instant, then flushed), books exactly what the
// same commands book unplugged — the same completions, the same GETs,
// PUTs and cache hits — and nothing is counted as merged.
func TestPlugChangesNoBooking(t *testing.T) {
	run := func(plug bool) ([]int64, map[string]int64) {
		d, rec, clk := metricsDev(t, 64, netstore.Config{Model: costmodel.Default()})
		for blk := 0; blk < 40; blk++ {
			write(t, d, clk, blk, byte(blk+1))
		}
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		d.DropBackendCache()
		if plug {
			d.Plug()
			defer d.Unplug()
		}
		at := clk.NowNS()
		buf := make([]byte, d.BlockSize())
		var done []int64
		for blk := 4; blk < 36; blk++ {
			clk.SetNS(at)
			if err := d.Read(clk, blk, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(blk+1) {
				t.Fatalf("blk %d reads back %#x", blk, buf[0])
			}
			done = append(done, clk.NowNS())
		}
		at = clk.NowNS()
		for blk := 4; blk < 36; blk++ {
			clk.SetNS(at)
			page := bytes.Repeat([]byte{byte(blk + 101)}, d.BlockSize())
			submit := d.Submit
			if blk%2 == 0 {
				submit = d.SubmitOwned
			}
			end, err := submit(clk, blk, page)
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, end)
		}
		clk.AdvanceTo(slices.Max(done[len(done)-32:]))
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		done = append(done, clk.NowNS())
		return done, rec.Counters()
	}
	plugged, pc := run(true)
	unplugged, uc := run(false)
	for i := range plugged {
		if plugged[i] != unplugged[i] {
			t.Fatalf("command %d completes at %d plugged, %d unplugged", i, plugged[i], unplugged[i])
		}
	}
	if pc["dev_read_merged"] != 0 || pc["dev_write_merged"] != 0 {
		t.Fatalf("%d reads and %d writes merged on the object store", pc["dev_read_merged"], pc["dev_write_merged"])
	}
	for _, k := range []string{"net_gets", "net_puts", "net_cache_hits", "net_cache_misses", "dev_reads", "dev_writes"} {
		if pc[k] != uc[k] {
			t.Fatalf("%s = %d plugged, %d unplugged", k, pc[k], uc[k])
		}
	}
}
