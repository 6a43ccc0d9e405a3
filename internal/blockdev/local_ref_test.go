package blockdev

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// What follows, down to TestLocalBackendMatchesReference, is the local
// backend this package shipped before buffers were passed by reference —
// 16-block slabs, an undo log of copied durable images — kept verbatim
// but for its image free list (identifiers prefixed ref) as the oracle:
// it copies on every read and write, overwrites in place and restores a
// crash loser by copying, so nothing it holds can be aliased from outside.

// refSlabBlocks is how many consecutive blocks share one allocation (64 KiB
// at the default block size). 16 rather than 64: internal/crashtort builds
// some two thousand 16 MiB devices whose file systems each touch a few
// scattered metadata regions, and with 256 KiB slabs its wall time rose
// 8-15 % (the allocator's madvise traffic on large short-lived objects)
// where 64 KiB slabs leave it level with one allocation per block; the
// streaming benchmark workloads measured no slower at 16 than at 64. Must
// not exceed 64: one word of the present and dirty bitsets covers one slab.
const refSlabBlocks = 16

// refLocalBackend is the RAM-backed NVMe model: the storage half of the
// historical Device, factored behind the Backend interface. Commands
// are priced by the cost model's Dev* entries and booked on a
// vclock.Resource with DevChannels service channels (queue-pair
// parallelism); writes land in a volatile write cache that a FLUSH
// promotes to the durable tier.
//
// Storage is slabs plus an undo log. Current contents (unflushed writes
// included) live in lazily allocated slabs: slab i holds blocks
// [i*refSlabBlocks, (i+1)*refSlabBlocks), a nil slab reads as zeros, and the
// table grows as higher blocks are written, so a multi-GiB device costs
// host memory only around the blocks actually written. The volatile write
// cache is the undo log, an append-only slice with one dirty bit per block
// beside it: the first write of a block since the last FLUSH sets the bit
// and appends the block's durable image, later writes see the bit and
// overwrite the slab in place, a FLUSH forgets the saved images (what the
// slabs hold is now durable) and a crash copies back the ones whose writes
// do not survive. A block that has never been written has no image to
// save — its undo record's image is nil and a lost write clears it —
// which is every block of a freshly written file: a streaming write copies
// each block once and allocates nothing. Saved images come from, and go
// back to, the backend's own free list (images).
type refLocalBackend struct {
	blockSize int
	slabs     [][]byte     // current contents
	present   []uint64     // bit blk: block blk has been written (slab si's word is present[si])
	dirty     []uint64     // bit blk: block blk has an undo record (written since the last FLUSH)
	undo      []refUndoRec // one record per dirty block, in first-write order
	images    [][]byte     // retired undo images, contents unspecified
	res       *vclock.Resource
	model     *costmodel.Model
}

// refUndoRec is how to take back the unflushed writes of one block.
type refUndoRec struct {
	blk   int
	saved []byte // the durable image; nil: never written, a lost write clears the block
}

// newRefLocalBackend builds the reference.
func newRefLocalBackend(name string, blockSize int, model *costmodel.Model) *refLocalBackend {
	return &refLocalBackend{
		blockSize: blockSize,
		res:       vclock.NewResource(name, model.DevChannels),
		model:     model,
	}
}

// block returns blk's bytes inside its slab, or nil when no block of that
// slab has been written yet.
func (lb *refLocalBackend) block(blk int) []byte {
	si := blk / refSlabBlocks
	if si >= len(lb.slabs) || lb.slabs[si] == nil {
		return nil
	}
	off := blk % refSlabBlocks * lb.blockSize
	return lb.slabs[si][off : off+lb.blockSize]
}

func (lb *refLocalBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if b := lb.block(blk); b != nil {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

func (lb *refLocalBackend) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	si, bit := blk/refSlabBlocks, uint64(1)<<(blk%refSlabBlocks)
	for si >= len(lb.slabs) {
		lb.slabs = append(lb.slabs, nil)
		lb.present = append(lb.present, 0)
		lb.dirty = append(lb.dirty, 0)
	}
	if lb.slabs[si] == nil {
		lb.slabs[si] = make([]byte, refSlabBlocks*lb.blockSize)
	}
	b := lb.block(blk)
	if lb.dirty[si]&bit == 0 {
		lb.dirty[si] |= bit
		var saved []byte
		if lb.present[si]&bit != 0 {
			if n := len(lb.images); n > 0 {
				saved, lb.images = lb.images[n-1], lb.images[:n-1]
			} else {
				saved = make([]byte, lb.blockSize)
			}
			copy(saved, b)
		}
		lb.present[si] |= bit
		lb.undo = append(lb.undo, refUndoRec{blk, saved})
	}
	copy(b, buf)
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

// retireUndo empties the undo log, keeping its buffers for reuse.
func (lb *refLocalBackend) retireUndo() {
	for _, u := range lb.undo {
		if u.saved != nil {
			lb.images = append(lb.images, u.saved)
		}
		lb.dirty[u.blk/refSlabBlocks] = 0
	}
	clear(lb.undo)
	lb.undo = lb.undo[:0]
}

// Flush promotes the whole write cache to the durable tier: the slabs
// already hold the new contents, so it only forgets how to undo them.
// Cost derives from the dirty count alone.
func (lb *refLocalBackend) Flush(now int64) (int64, error) {
	dirtyBytes := len(lb.undo) * lb.blockSize
	lb.retireUndo()
	return lb.res.AcquireSerial(now, int64(lb.model.DevFlush(dirtyBytes))), nil
}

func (lb *refLocalBackend) DirtyBlocks() int { return len(lb.undo) }

func (lb *refLocalBackend) Crash(keepFraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// The keep decisions are drawn in block order, not write order, so a
	// seed determines the outcome whatever order the writes arrived in.
	slices.SortFunc(lb.undo, func(a, b refUndoRec) int { return a.blk - b.blk })
	for _, u := range lb.undo {
		if rng.Float64() < keepFraction {
			continue // this unflushed write survives the power cut
		}
		if u.saved != nil {
			copy(lb.block(u.blk), u.saved)
		} else {
			clear(lb.block(u.blk))
			lb.present[u.blk/refSlabBlocks] &^= 1 << (u.blk % refSlabBlocks)
		}
	}
	lb.retireUndo() // only now: the loop above was still reading the images
	lb.res.Reset()
}

func (lb *refLocalBackend) QueueDepth(now int64) int { return lb.res.InUse(now) }

// SetRecorder is a no-op: the Device front already counts commands and
// samples queue depth; the local backend has nothing more to say.
func (lb *refLocalBackend) SetRecorder(*trace.Recorder) {}

// DropCache is a no-op: the local backend has no cache tier.
func (lb *refLocalBackend) DropCache() {}

// refUniverse is the sparse block range the equivalence test draws from:
// a dense run at the bottom, both sides of two 16-block boundaries and of
// a 64-block bitset word, and a far island that makes the table grow past
// a run of never-written blocks. The last entries are never written, so
// reads of them fall between written blocks and beyond the table's end.
func refUniverse() (writable, all []int) {
	for b := 0; b < 6; b++ {
		writable = append(writable, b)
	}
	for b := refSlabBlocks - 3; b < refSlabBlocks+3; b++ {
		writable = append(writable, b)
	}
	for b := 7*refSlabBlocks - 2; b < 7*refSlabBlocks+2; b++ {
		writable = append(writable, b)
	}
	for b := 40 * refSlabBlocks; b < 40*refSlabBlocks+3; b++ {
		writable = append(writable, b)
	}
	all = append(all, writable...)
	all = append(all, 9, 3*refSlabBlocks+1, 40*refSlabBlocks+5, 41*refSlabBlocks, 1000*refSlabBlocks+7)
	return writable, all
}

// held is a buffer the test keeps a reference to — a borrowed view or a
// donated buffer — with the checksum it had when the backend last could
// legitimately have produced or received it.
type held struct {
	buf []byte
	sum uint32
}

// TestLocalBackendMatchesReference drives the per-block backend and the
// slab reference through the same 120 000 seeded calls — ReadBlock,
// BorrowBlock, SubmitBlock, SubmitOwned, Flush, Crash at keep 0, 0.3 and
// 1 — and requires every returned byte (a nil view being a block
// of zeros), every completion time, every DirtyBlocks() and QueueDepth()
// to agree, with a read-back of the whole range after each Flush and
// Crash. The reference copies where the backend borrows and adopts, so
// the test also keeps every view and every donated buffer and checks
// after each call that none of them changed. Small blocks keep it fast;
// nothing in either backend depends on the size.
func TestLocalBackendMatchesReference(t *testing.T) {
	const blockSize = 512
	const calls = 120_000
	model := costmodel.Default()
	got := NewLocalBackend("dut", blockSize, model)
	ref := newRefLocalBackend("ref", blockSize, model)
	writable, all := refUniverse()

	rng := rand.New(rand.NewSource(18))
	now := int64(0)
	in := make([]byte, blockSize)
	gbuf := make([]byte, blockSize)
	rbuf := make([]byte, blockSize)
	zeros := make([]byte, blockSize)
	var holds []held

	check := func(i int, what string, g, r int64) {
		t.Helper()
		if g != r {
			t.Fatalf("call %d %s: completion %d, reference %d", i, what, g, r)
		}
		if gd, rd := got.DirtyBlocks(), ref.DirtyBlocks(); gd != rd {
			t.Fatalf("call %d %s: DirtyBlocks %d, reference %d", i, what, gd, rd)
		}
		if gq, rq := got.QueueDepth(g), ref.QueueDepth(g); gq != rq {
			t.Fatalf("call %d %s: QueueDepth %d, reference %d", i, what, gq, rq)
		}
		if rng.Intn(4) == 0 {
			now = g // sometimes wait for the command, sometimes keep submitting
		}
	}
	// A buffer the backend wrote stays written, so the holds are checked
	// at every Flush and Crash (and before any is forgotten), not per call.
	checkHolds := func(i int, what string) {
		t.Helper()
		for _, h := range holds {
			if crc32.ChecksumIEEE(h.buf) != h.sum {
				t.Fatalf("call %d %s: a held view or donated buffer changed", i, what)
			}
		}
	}
	hold := func(i int, b []byte) {
		if len(holds) == 512 {
			checkHolds(i, "hold")
			holds = holds[:0]
		}
		holds = append(holds, held{b, crc32.ChecksumIEEE(b)})
	}
	read := func(i int, what string, blk int) {
		t.Helper()
		// Poison both buffers: a read must write every byte.
		for j := range gbuf {
			gbuf[j], rbuf[j] = 0xA5, 0x5A
		}
		r, _ := ref.ReadBlock(now, blk, rbuf)
		var g int64
		if rng.Intn(2) == 0 {
			g, _ = got.ReadBlock(now, blk, gbuf)
		} else {
			var view []byte
			view, g, _ = got.BorrowBlock(now, blk)
			switch {
			case view == nil:
				view = zeros
			case len(view) != blockSize:
				t.Fatalf("call %d %s: block %d lent as %d bytes", i, what, blk, len(view))
			default:
				hold(i, view)
			}
			copy(gbuf, view)
		}
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
		checkHolds(i, what)
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
			r, _ := ref.SubmitBlock(now, blk, in)
			var g int64
			if rng.Intn(2) == 0 {
				g, _ = got.SubmitBlock(now, blk, in)
			} else {
				donated := slices.Clone(in)
				g, _ = got.SubmitOwned(now, blk, donated)
				hold(i, donated)
			}
			check(i, "submit", g, r)
		case p < 900:
			read(i, "read", all[rng.Intn(len(all))])
		case p < 960:
			g, _ := got.Flush(now)
			r, _ := ref.Flush(now)
			check(i, "flush", g, r)
			readBack(i, "flush")
		default:
			keep := []float64{0, 0.3, 1}[rng.Intn(3)]
			seed := rng.Int63()
			got.Crash(keep, seed)
			ref.Crash(keep, seed)
			if got.DirtyBlocks() != 0 {
				t.Fatalf("call %d: %d dirty blocks after Crash", i, got.DirtyBlocks())
			}
			readBack(i, "crash")
		}
	}
	checkHolds(calls, "end")
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

// warmStream runs two passes: the first carves a buffer for every block,
// the second (every write now replaces a durable buffer, which a FLUSH
// then retires) stocks the free list.
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
	lb := NewLocalBackend("bench", 4096, costmodel.Default())
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
	lb := NewLocalBackend("bench", 4096, costmodel.Default())
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

// borrowOp and donateOp are streamOp's two halves by reference: 32 blocks
// borrowed, and 32 blocks donated with a FLUSH every eighth op. One
// donated buffer serves every block — legal, since nobody writes it — so
// the loop times the backend and not the caller's allocator.
func borrowOp(lb Backend, i int) {
	base := i % (streamBlocks / streamOpBlocks) * streamOpBlocks
	for b := 0; b < streamOpBlocks; b++ {
		lb.BorrowBlock(0, base+b)
	}
}

func donateOp(lb Backend, i int, src []byte) {
	base := i % (streamBlocks / streamOpBlocks) * streamOpBlocks
	for b := 0; b < streamOpBlocks; b++ {
		lb.SubmitOwned(0, base+b, src)
	}
	if i%8 == 7 {
		lb.Flush(0)
	}
}

// BenchmarkLocalBackendBorrow reports the host cost of a page-cache fill
// by reference: 32 BorrowBlocks per op over 48 MiB of written blocks.
func BenchmarkLocalBackendBorrow(b *testing.B) {
	lb := NewLocalBackend("bench", 4096, costmodel.Default())
	src, dst := bytes.Repeat([]byte{0x5A}, 4096), make([]byte, 4096)
	warmStream(lb, src, dst)
	b.ReportAllocs()
	b.SetBytes(streamOpBlocks * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		borrowOp(lb, i)
	}
}

// BenchmarkLocalBackendSubmitOwned reports the host cost of write-back by
// reference: 32 SubmitOwneds per op, a FLUSH every 8 ops.
func BenchmarkLocalBackendSubmitOwned(b *testing.B) {
	lb := NewLocalBackend("bench", 4096, costmodel.Default())
	src, dst := bytes.Repeat([]byte{0x5A}, 4096), make([]byte, 4096)
	warmStream(lb, src, dst)
	b.ReportAllocs()
	b.SetBytes(streamOpBlocks * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		donateOp(lb, i, src)
	}
}

// TestLocalBackendSteadyStateAllocs holds every shape at zero allocations
// once each block has a buffer and the free list has filled.
func TestLocalBackendSteadyStateAllocs(t *testing.T) {
	lb := NewLocalBackend("allocs", 4096, costmodel.Default())
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
	if n := testing.AllocsPerRun(200, func() { borrowOp(lb, i); donateOp(lb, i, src); i++ }); n != 0 {
		t.Errorf("borrow + donate: %v allocs/op at steady state, want 0", n)
	}
}
