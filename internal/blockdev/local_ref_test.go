package blockdev

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/vclock"
)

// refLocalBackend is the three-map local backend this package shipped
// before slabs and the undo log, kept verbatim as the oracle for
// TestLocalBackendMatchesReference: current contents, durable contents
// and the dirty set are three separate maps, and every first write after
// a FLUSH copies-on-write. It is slow and obviously right.
type refLocalBackend struct {
	blockSize int
	data      map[int][]byte   // current contents (includes unflushed writes)
	persist   map[int][]byte   // durable contents (as of the last FLUSH)
	dirty     map[int]struct{} // blocks written since the last FLUSH
	res       *vclock.Resource
	model     *costmodel.Model
}

func newRefLocalBackend(name string, blockSize int, model *costmodel.Model) *refLocalBackend {
	return &refLocalBackend{
		blockSize: blockSize,
		data:      make(map[int][]byte),
		persist:   make(map[int][]byte),
		dirty:     make(map[int]struct{}),
		res:       vclock.NewResource(name, model.DevChannels),
		model:     model,
	}
}

func (lb *refLocalBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if b, ok := lb.data[blk]; ok {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

func (lb *refLocalBackend) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	if _, already := lb.dirty[blk]; already {
		copy(lb.data[blk], buf) // private since the last flush; overwrite in place
	} else {
		lb.data[blk] = append(make([]byte, 0, lb.blockSize), buf...) // copy-on-write
		lb.dirty[blk] = struct{}{}
	}
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

func (lb *refLocalBackend) Flush(now int64) (int64, error) {
	dirtyBytes := len(lb.dirty) * lb.blockSize
	for blk := range lb.dirty {
		lb.persist[blk] = lb.data[blk] // share; next write copies-on-write
	}
	lb.dirty = make(map[int]struct{})
	return lb.res.AcquireSerial(now, int64(lb.model.DevFlush(dirtyBytes))), nil
}

func (lb *refLocalBackend) DirtyBlocks() int { return len(lb.dirty) }

func (lb *refLocalBackend) Crash(keepFraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	blks := make([]int, 0, len(lb.dirty))
	for blk := range lb.dirty {
		blks = append(blks, blk)
	}
	sort.Ints(blks)
	for _, blk := range blks {
		if rng.Float64() < keepFraction {
			lb.persist[blk] = lb.data[blk]
		}
	}
	lb.data = make(map[int][]byte, len(lb.persist))
	for blk, b := range lb.persist {
		lb.data[blk] = b
	}
	lb.dirty = make(map[int]struct{})
	lb.res.Reset()
}

func (lb *refLocalBackend) Reset() { lb.res.Reset() }

// refUniverse is the sparse block range the equivalence test draws from:
// a dense run at the bottom, both sides of two slab boundaries, and a
// far island that makes the slab table grow past a run of nil slabs.
// The last entries are never written, so reads of them fall in a written
// slab's unwritten blocks, in a nil slab, and beyond the table's end.
func refUniverse() (writable, all []int) {
	for b := 0; b < 6; b++ {
		writable = append(writable, b)
	}
	for b := slabBlocks - 3; b < slabBlocks+3; b++ {
		writable = append(writable, b)
	}
	for b := 7*slabBlocks - 2; b < 7*slabBlocks+2; b++ {
		writable = append(writable, b)
	}
	for b := 40 * slabBlocks; b < 40*slabBlocks+3; b++ {
		writable = append(writable, b)
	}
	all = append(all, writable...)
	all = append(all, 9, 3*slabBlocks+1, 40*slabBlocks+5, 41*slabBlocks, 1000*slabBlocks+7)
	return writable, all
}

// TestLocalBackendMatchesReference drives the slab/undo-log backend and
// the three-map reference through the same 120 000 seeded calls —
// ReadBlock, SubmitBlock, Flush, Crash at keep 0, 0.3 and 1, Reset — and
// requires every returned byte, every completion time and every
// DirtyBlocks() to agree, with a read-back of the whole range after each
// Flush and Crash. Small blocks keep it fast; nothing in either backend
// depends on the size.
func TestLocalBackendMatchesReference(t *testing.T) {
	const blockSize = 512
	const calls = 120_000
	model := costmodel.Fast()
	got := NewLocalBackend("dut", blockSize, model)
	ref := newRefLocalBackend("ref", blockSize, model)
	writable, all := refUniverse()

	rng := rand.New(rand.NewSource(18))
	now := int64(0)
	in := make([]byte, blockSize)
	gbuf := make([]byte, blockSize)
	rbuf := make([]byte, blockSize)

	check := func(i int, what string, g, r int64) {
		t.Helper()
		if g != r {
			t.Fatalf("call %d %s: completion %d, reference %d", i, what, g, r)
		}
		if gd, rd := got.DirtyBlocks(), ref.DirtyBlocks(); gd != rd {
			t.Fatalf("call %d %s: DirtyBlocks %d, reference %d", i, what, gd, rd)
		}
		if rng.Intn(4) == 0 {
			now = g // sometimes wait for the command, sometimes keep submitting
		}
	}
	read := func(i int, what string, blk int) {
		t.Helper()
		// Poison both buffers: a read must write every byte.
		for j := range gbuf {
			gbuf[j], rbuf[j] = 0xA5, 0x5A
		}
		g, _ := got.ReadBlock(now, blk, gbuf)
		r, _ := ref.ReadBlock(now, blk, rbuf)
		if !bytes.Equal(gbuf, rbuf) {
			t.Fatalf("call %d %s: block %d differs from the reference", i, what, blk)
		}
		check(i, what, g, r)
	}
	readBack := func(i int, what string) {
		t.Helper()
		for _, blk := range all {
			read(i, what+" read-back", blk)
		}
	}

	for i := 0; i < calls; i++ {
		now += int64(rng.Intn(2000))
		switch p := rng.Intn(1000); {
		case p < 480:
			blk := writable[rng.Intn(len(writable))]
			if rng.Intn(16) == 0 {
				clear(in) // a written block of zeros is still a written block
			} else {
				rng.Read(in)
			}
			g, _ := got.SubmitBlock(now, blk, in)
			r, _ := ref.SubmitBlock(now, blk, in)
			check(i, "submit", g, r)
		case p < 900:
			read(i, "read", all[rng.Intn(len(all))])
		case p < 960:
			g, _ := got.Flush(now)
			r, _ := ref.Flush(now)
			check(i, "flush", g, r)
			readBack(i, "flush")
		case p < 990:
			keep := []float64{0, 0.3, 1}[rng.Intn(3)]
			seed := rng.Int63()
			got.Crash(keep, seed)
			ref.Crash(keep, seed)
			if got.DirtyBlocks() != 0 {
				t.Fatalf("call %d: %d dirty blocks after Crash", i, got.DirtyBlocks())
			}
			readBack(i, "crash")
		default:
			got.Reset()
			ref.Reset()
		}
	}
}

// The stream benchmark is the local-stream shape at package scale:
// 48 MiB of 4 KiB blocks, ops of 32 consecutive blocks.
const (
	streamBlocks   = 48 << 20 / 4096
	streamOpBlocks = 32
)

// streamOp is one benchmark step over op-sized extent i: write it, FLUSH
// every eighth op, read it back.
func streamOp(lb Backend, i int, src, dst []byte) {
	base := i % (streamBlocks / streamOpBlocks) * streamOpBlocks
	for b := 0; b < streamOpBlocks; b++ {
		lb.SubmitBlock(0, base+b, src)
	}
	if i%8 == 7 {
		lb.Flush(0)
	}
	for b := 0; b < streamOpBlocks; b++ {
		lb.ReadBlock(0, base+b, dst)
	}
}

// warmStream runs two passes: the first allocates the slabs, the second
// (every block now has a durable image to save) fills the undo free list.
func warmStream(lb Backend, src, dst []byte) {
	for i := 0; i < 2*streamBlocks/streamOpBlocks; i++ {
		streamOp(lb, i, src, dst)
	}
}

// rewriteOp is the journal shape: the same 64 blocks rewritten between
// FLUSHes, so every write after the first pass saves a durable image.
func rewriteOp(lb Backend, src []byte) {
	for b := 0; b < 64; b++ {
		lb.SubmitBlock(0, 1000+b, src)
	}
	lb.Flush(0)
}

// BenchmarkLocalBackendStream reports the host cost of the streaming
// data plane: 32 submits, a FLUSH every 8 ops, 32 reads, over 48 MiB.
func BenchmarkLocalBackendStream(b *testing.B) {
	lb := NewLocalBackend("bench", 4096, costmodel.Fast())
	src, dst := bytes.Repeat([]byte{0x5A}, 4096), make([]byte, 4096)
	warmStream(lb, src, dst)
	b.ReportAllocs()
	b.SetBytes(2 * streamOpBlocks * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamOp(lb, i, src, dst)
	}
}

// BenchmarkLocalBackendRewrite reports the journal shape: 64 blocks
// rewritten and flushed per op.
func BenchmarkLocalBackendRewrite(b *testing.B) {
	lb := NewLocalBackend("bench", 4096, costmodel.Fast())
	src := bytes.Repeat([]byte{0x5A}, 4096)
	rewriteOp(lb, src)
	rewriteOp(lb, src)
	b.ReportAllocs()
	b.SetBytes(64 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewriteOp(lb, src)
	}
}

// TestLocalBackendSteadyStateAllocs holds both shapes at zero
// allocations once the slabs exist and the undo free list has filled.
func TestLocalBackendSteadyStateAllocs(t *testing.T) {
	lb := NewLocalBackend("allocs", 4096, costmodel.Fast())
	src, dst := bytes.Repeat([]byte{0x5A}, 4096), make([]byte, 4096)
	warmStream(lb, src, dst)
	i := 0
	if n := testing.AllocsPerRun(200, func() { streamOp(lb, i, src, dst); i++ }); n != 0 {
		t.Errorf("stream: %v allocs/op at steady state, want 0", n)
	}
	rewriteOp(lb, src)
	rewriteOp(lb, src)
	if n := testing.AllocsPerRun(200, func() { rewriteOp(lb, src) }); n != 0 {
		t.Errorf("rewrite: %v allocs/op at steady state, want 0", n)
	}
}
