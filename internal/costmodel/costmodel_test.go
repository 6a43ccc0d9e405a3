package costmodel

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultModelSane(t *testing.T) {
	m := Default()
	if m.DevChannels < 1 {
		t.Fatal("device must have at least one channel")
	}
	if m.DevFlushBase <= m.DevWriteBase {
		t.Fatal("FLUSH must cost more than a cached write; the FUSE results depend on it")
	}
	if m.DevReadBase <= 0 || m.DevWriteBase <= 0 {
		t.Fatal("device service times must be positive")
	}
	if m.BentoDispatch >= m.VFSDispatch {
		t.Fatal("Bento's translation layer should be thinner than full VFS dispatch")
	}
}

func TestCopyRoundsUpToPages(t *testing.T) {
	m := Default()
	if got, want := m.Copy(1), m.CopyPer4K; got != want {
		t.Fatalf("Copy(1) = %v, want one page (%v)", got, want)
	}
	if got, want := m.Copy(4096), m.CopyPer4K; got != want {
		t.Fatalf("Copy(4096) = %v, want one page (%v)", got, want)
	}
	if got, want := m.Copy(4097), 2*m.CopyPer4K; got != want {
		t.Fatalf("Copy(4097) = %v, want two pages (%v)", got, want)
	}
	if got := m.Copy(0); got != 0 {
		t.Fatalf("Copy(0) = %v, want 0", got)
	}
}

func TestDevReadWriteScaleWithSize(t *testing.T) {
	m := Default()
	small := m.DevRead(4096)
	large := m.DevRead(1 << 20)
	if large <= small {
		t.Fatalf("1MB read (%v) should cost more than 4K read (%v)", large, small)
	}
	// Per-byte device throughput must exceed copy throughput, or caching
	// would never help.
	if m.DevRead4K < m.CopyPer4K {
		t.Fatal("device per-page transfer should dominate memcpy per page")
	}
	if m.DevWrite(0) != m.DevWriteBase {
		t.Fatal("zero-byte write should cost just the base")
	}
}

func TestDevFlushGrowsWithDirty(t *testing.T) {
	m := Default()
	empty := m.DevFlush(0)
	full := m.DevFlush(1 << 20)
	if empty != m.DevFlushBase {
		t.Fatalf("flush with empty cache = %v, want base %v", empty, m.DevFlushBase)
	}
	if full <= empty {
		t.Fatal("flush cost must grow with dirty bytes")
	}
}

func TestFastModelIsFast(t *testing.T) {
	f, d := Fast(), Default()
	if f.DevFlush(1<<20) >= d.DevFlush(1<<20) {
		t.Fatal("Fast model should be much cheaper than Default")
	}
	if f.CPUs < 1 || f.DevChannels < 1 || f.NetChannels < 1 {
		t.Fatal("Fast model must keep valid resource counts")
	}
}

func TestCostsMonotoneInSizeProperty(t *testing.T) {
	m := Default()
	f := func(a, b uint32) bool {
		x, y := int(a%(64<<20)), int(b%(64<<20))
		if x > y {
			x, y = y, x
		}
		return m.Copy(x) <= m.Copy(y) &&
			m.DevRead(x) <= m.DevRead(y) &&
			m.DevWrite(x) <= m.DevWrite(y) &&
			m.DevFlush(x) <= m.DevFlush(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSizesCostNothingExtra(t *testing.T) {
	m := Default()
	if m.Copy(-5) != 0 {
		t.Fatal("negative copy size should cost zero")
	}
	if m.DevRead(-5) != m.DevReadBase {
		t.Fatal("negative read size should cost only the base")
	}
	if m.DevFlush(-5) != m.DevFlushBase {
		t.Fatal("negative dirty size should cost only the base")
	}
}

func TestPagesHelper(t *testing.T) {
	cases := []struct {
		bytes int
		want  int64
	}{{0, 0}, {-1, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {12288, 3}}
	for _, c := range cases {
		if got := pages(c.bytes); got != c.want {
			t.Errorf("pages(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestFlushDominatesWritePathShape(t *testing.T) {
	// The paper's FUSE create result (24 ops/s vs ~1000 ops/s in-kernel)
	// requires a FLUSH to cost tens of cached-write times.
	m := Default()
	if m.DevFlushBase < 50*m.DevWriteBase {
		t.Fatalf("flush (%v) should be >= 50x a cached write (%v) to reproduce the paper's FUSE penalties",
			m.DevFlushBase, m.DevWriteBase)
	}
	if m.DevFlushBase < time.Millisecond {
		t.Fatal("consumer NVMe flush should be in the millisecond range")
	}
}

// TestWithNet: the one place a network point is derived. Latency sets
// GET = PUT with the flush barrier at 4x; bandwidth sets the per-4KiB
// streaming cost; a zero leaves its entry alone; the receiver — shared by
// concurrently running cells — is never written.
func TestWithNet(t *testing.T) {
	base := Default()
	before := *base

	m := base.WithNet(20*time.Millisecond, 80)
	if m.NetGetBase != 20*time.Millisecond || m.NetPutBase != 20*time.Millisecond || m.NetFlushBase != 80*time.Millisecond {
		t.Errorf("latency point: GET/PUT/FLUSH = %v/%v/%v", m.NetGetBase, m.NetPutBase, m.NetFlushBase)
	}
	if m.NetPer4K != 51200*time.Nanosecond {
		t.Errorf("80 MB/s: %v per 4KiB, want 51.2µs", m.NetPer4K)
	}

	latOnly := base.WithNet(5*time.Millisecond, 0)
	if latOnly.NetGetBase != 5*time.Millisecond || latOnly.NetPer4K != base.NetPer4K {
		t.Errorf("latency alone: GET %v, per-4KiB %v (base %v)", latOnly.NetGetBase, latOnly.NetPer4K, base.NetPer4K)
	}
	bwOnly := base.WithNet(0, 100)
	if bwOnly.NetPer4K != 40960*time.Nanosecond || bwOnly.NetGetBase != base.NetGetBase || bwOnly.NetFlushBase != base.NetFlushBase {
		t.Errorf("bandwidth alone: per-4KiB %v, GET %v, FLUSH %v", bwOnly.NetPer4K, bwOnly.NetGetBase, bwOnly.NetFlushBase)
	}
	if same := base.WithNet(0, 0); *same != before || same == base {
		t.Error("WithNet(0, 0) must be an unchanged copy")
	}
	if *base != before {
		t.Error("WithNet wrote through to its receiver")
	}
}
