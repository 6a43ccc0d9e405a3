package fuse

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// newTestUserDisk returns a user disk over a fresh device and a task
// whose trace recorder also counts the device's commands.
func newTestUserDisk(t *testing.T, cacheBlocks int) (*UserDisk, *kernel.Task) {
	t.Helper()
	model := costmodel.Default()
	dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	k := tracedKernel(dev, model)
	return NewUserDisk(dev, cacheBlocks), k.NewTask("ud-test")
}

// tracedKernel returns a new kernel sharing one new trace recorder with
// dev.
func tracedKernel(dev *blockdev.Device, model *costmodel.Model) *kernel.Kernel {
	rec := trace.New()
	dev.SetRecorder(rec)
	k := kernel.New(model)
	k.SetRecorder(rec)
	return k
}

// TestUserDiskExactLRU mirrors the kernel buffer-cache test: the user
// cache must evict the least recently used clean, unreferenced block.
func TestUserDiskExactLRU(t *testing.T) {
	ud, task := newTestUserDisk(t, 4)
	readRelease := func(blk int) {
		t.Helper()
		b, err := ud.BRead(task, blk)
		if err != nil {
			t.Fatalf("BRead(%d): %v", blk, err)
		}
		if err := b.Release(); err != nil {
			t.Fatalf("Release(%d): %v", blk, err)
		}
	}
	for blk := 0; blk < 4; blk++ {
		readRelease(blk)
	}
	readRelease(0) // rescue 0 from the LRU tail
	readRelease(4) // evicts 1
	base := task.Rec().Counters()
	readRelease(0)
	readRelease(2)
	readRelease(3)
	if c := task.Rec().Counters(); c["buf_hits"] != base["buf_hits"]+3 {
		t.Fatalf("resident blocks missed: %v vs %v", c, base)
	}
	readRelease(1)
	if c := task.Rec().Counters(); c["buf_misses"] != base["buf_misses"]+1 {
		t.Fatalf("block 1 was not the victim: %v vs %v", c, base)
	}
}

// TestUserDiskReadError checks a failed pread does not leave a poisoned
// cache entry behind.
func TestUserDiskReadError(t *testing.T) {
	ud, task := newTestUserDisk(t, 16)
	ud.dev.InjectReadError(7)
	if _, err := ud.BRead(task, 7); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("BRead(7) = %v, want ErrIO", err)
	}
	ud.dev.ClearFaults()
	b, err := ud.BRead(task, 7)
	if err != nil {
		t.Fatalf("BRead(7) after clearing fault: %v", err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestUserDiskDoubleRelease checks the brelse error path.
func TestUserDiskDoubleRelease(t *testing.T) {
	ud, task := newTestUserDisk(t, 16)
	b, err := ud.BRead(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("double release = %v, want ErrInvalid", err)
	}
}

// TestUserDiskConcurrent drives one user cache from eight scheduled
// tasks over a block range four times its size and checks the fill
// accounting: every BRead is a hit or a miss, every miss is exactly one
// pread of the disk file, every miss past the first 64 evicts one block,
// and the interleaving replays exactly.
func TestUserDiskConcurrent(t *testing.T) {
	run := func() (map[string]int64, int) {
		model := costmodel.Default()
		dev, err := blockdev.New(blockdev.Config{Blocks: 4096, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		k := tracedKernel(dev, model)
		ud := NewUserDisk(dev, 64)
		vclock.NewGroup(0).Run(8, func(g int, w *vclock.Worker) {
			task := k.NewTaskWithClock(fmt.Sprintf("w%d", g), w.Clock())
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				w.Yield()
				blk := int(rng.Int31n(256))
				b, err := ud.BRead(task, blk)
				if err != nil {
					t.Errorf("BRead(%d): %v", blk, err)
					return
				}
				if b.BlockNo() != blk {
					t.Errorf("BRead(%d) returned block %d", blk, b.BlockNo())
					return
				}
				if err := b.Release(); err != nil {
					t.Errorf("Release(%d): %v", blk, err)
					return
				}
			}
		})
		return k.Recorder().Counters(), ud.cache.Len()
	}
	c, resident := run()
	if c["buf_hits"]+c["buf_misses"] != 8*300 || c["dev_reads"] != c["buf_misses"] {
		t.Fatalf("counters %v: want hits+misses = %d and one pread per miss", c, 8*300)
	}
	if c["buf_misses"] <= 64 || resident != 64 {
		t.Fatalf("%d misses leave %d blocks resident: every miss past the first 64 must evict one block", c["buf_misses"], resident)
	}
	if c2, _ := run(); !maps.Equal(c2, c) {
		t.Fatalf("replay differs: %v vs %v", c2, c)
	}
}

// fillDevice gives every block of the device distinct, non-zero contents
// (block b is filled with byte(b)+1).
func fillDevice(t *testing.T, ud *UserDisk, task *kernel.Task, blocks int) {
	t.Helper()
	buf := make([]byte, ud.BlockSize())
	for blk := 0; blk < blocks; blk++ {
		for i := range buf {
			buf[i] = byte(blk) + 1
		}
		if err := ud.dev.Write(task.Clk, blk, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUserDiskRecyclesVictim: a miss on a full cache reuses the evicted
// block's memory under its new key, BReadNoFill hands it out zeroed
// (the allocation it replaces did), and BRead fills it.
func TestUserDiskRecyclesVictim(t *testing.T) {
	ud, task := newTestUserDisk(t, 4)
	fillDevice(t, ud, task, 16)
	var resident []*ubuf
	for blk := 0; blk < 4; blk++ {
		b, err := ud.BRead(task, blk)
		if err != nil {
			t.Fatal(err)
		}
		resident = append(resident, b.(*ubuf))
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}

	b, err := ud.BReadNoFill(task, 9) // evicts block 0, the LRU tail
	if err != nil {
		t.Fatal(err)
	}
	if b.(*ubuf) != resident[0] {
		t.Fatal("the miss allocated instead of recycling the evicted block")
	}
	if b.BlockNo() != 9 || b.(*ubuf).node.Refs() != 1 || b.(*ubuf).node.Dirty() {
		t.Fatalf("recycled block: no %d refs %d dirty %v", b.BlockNo(), b.(*ubuf).node.Refs(), b.(*ubuf).node.Dirty())
	}
	data, _ := b.Data()
	for i, c := range data {
		if c != 0 {
			t.Fatalf("BReadNoFill on a recycled block: byte %d = %#x, want zeros", i, c)
		}
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}

	b, err = ud.BRead(task, 10) // evicts block 1
	if err != nil {
		t.Fatal(err)
	}
	if b.(*ubuf) != resident[1] {
		t.Fatal("the second miss did not recycle block 1's memory")
	}
	data, _ = b.Data()
	if data[0] != 11 || data[len(data)-1] != 11 {
		t.Fatalf("recycled block filled with %#x, want block 10's contents", data[0])
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ud.cache.Peek(0); ok {
		t.Fatal("block 0 still resident after its memory was recycled")
	}
}

// TestUserDiskChurn: many times the cache's capacity in misses, each
// block modified and written back through a recycled buffer — every
// block still reads what was last written, and the cache never holds
// more memory than its capacity.
func TestUserDiskChurn(t *testing.T) {
	const capacity, blocks = 8, 64 // 8x the cache per pass
	ud, task := newTestUserDisk(t, capacity)
	fillDevice(t, ud, task, blocks)
	seen := make(map[*ubuf]bool)
	for pass := 1; pass <= 2; pass++ {
		for blk := 0; blk < blocks; blk++ {
			b, err := ud.BRead(task, blk)
			if err != nil {
				t.Fatal(err)
			}
			seen[b.(*ubuf)] = true
			data, _ := b.Data()
			if want := byte(blk) + byte(pass); data[0] != want || data[len(data)-1] != want {
				t.Fatalf("pass %d: block %d reads %#x, want %#x", pass, blk, data[0], want)
			}
			for i := range data {
				data[i]++
			}
			if err := b.MarkDirty(); err != nil {
				t.Fatal(err)
			}
			if err := b.WriteSync(task); err != nil {
				t.Fatal(err)
			}
			if err := b.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != capacity {
		t.Fatalf("%d distinct buffers served %d misses, want the cache's %d", len(seen), 2*blocks, capacity)
	}
	if misses := task.Rec().Counters()["buf_misses"]; misses != 2*blocks || ud.cache.Len() != capacity {
		t.Fatalf("%d misses leave %d blocks resident, want %d and %d", misses, ud.cache.Len(), 2*blocks, capacity)
	}
}

// TestUserDiskFailedFillNotRecycled: a block whose pread failed is never
// inserted — it took the victim's memory with it, and the next miss,
// on a cache with room again, gets a fresh block rather than memory that
// eviction did not just free.
func TestUserDiskFailedFillNotRecycled(t *testing.T) {
	ud, task := newTestUserDisk(t, 2)
	fillDevice(t, ud, task, 8)
	var first *ubuf
	for blk := 0; blk < 2; blk++ {
		b, err := ud.BRead(task, blk)
		if err != nil {
			t.Fatal(err)
		}
		if blk == 0 {
			first = b.(*ubuf)
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	ud.dev.InjectReadError(5)
	if _, err := ud.BRead(task, 5); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("BRead(5) = %v, want ErrIO", err)
	}
	ud.dev.ClearFaults()
	if keys := ud.cache.Keys(); len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("resident after the failed fill: %v, want [1]", keys)
	}
	for _, blk := range []int{0, 5} {
		b, err := ud.BRead(task, blk)
		if err != nil {
			t.Fatalf("BRead(%d) after the failed fill: %v", blk, err)
		}
		if blk == 0 && b.(*ubuf) == first {
			t.Fatal("the block whose fill failed was handed out again")
		}
		data, _ := b.Data()
		if data[0] != byte(blk)+1 {
			t.Fatalf("block %d reads %#x", blk, data[0])
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// probeBackend runs a probe inside the read of one block, so a test can
// look at the cache while that block's fill is in flight — on the one
// goroutine, the way the fill itself runs.
type probeBackend struct {
	blockdev.Backend
	blk   int
	probe func()
}

func (p *probeBackend) BorrowBlock(now int64, blk int) ([]byte, int64, error) {
	if blk == p.blk {
		p.probe()
	}
	return p.Backend.BorrowBlock(now, blk)
}

// TestUserDiskRecycledBlockBlocksHitters: a block enters the cache only
// once its pread has succeeded. While block 7's read is in flight the
// miss has already evicted block 0 to make room, and block 7 is not
// resident — there is no half-filled entry for a hitter to find. Once the
// fill returns, a second reader hits block 7 in block 0's recycled memory.
func TestUserDiskRecycledBlockBlocksHitters(t *testing.T) {
	model := costmodel.Default()
	pb := &probeBackend{Backend: blockdev.NewLocalBackend("probed", 4096, model), blk: -1}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model, Backend: pb})
	k := tracedKernel(dev, model)
	ud, task := NewUserDisk(dev, 1), k.NewTask("filler")
	fillDevice(t, ud, task, 8)
	b, err := ud.BRead(task, 0) // the block the miss below recycles
	if err != nil {
		t.Fatal(err)
	}
	victim := b.(*ubuf)
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}

	probed := false
	pb.blk, pb.probe = 7, func() {
		probed = true
		if _, ok := ud.cache.Peek(7); ok {
			t.Error("mid-fill: block 7 is resident before its read completed")
		}
		if _, ok := ud.cache.Peek(0); ok || ud.cache.Len() != 0 {
			t.Errorf("mid-fill: block 0 resident=%v, %d resident; want it evicted", ok, ud.cache.Len())
		}
	}
	for _, name := range []string{"filler", "hitter"} {
		b, err := ud.BRead(k.NewTask(name), 7)
		if err != nil {
			t.Fatalf("%s: BRead(7): %v", name, err)
		}
		if b.(*ubuf) != victim {
			t.Fatalf("%s: block 7 is not in block 0's recycled memory", name)
		}
		if data, _ := b.Data(); data[0] != 8 {
			t.Fatalf("%s read %#x, want block 7's %#x", name, data[0], 8)
		}
		if err := b.Release(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !probed {
		t.Fatal("the fill of block 7 never reached the device")
	}
	c := k.Recorder().Counters()
	if c["buf_hits"] != 1 || c["buf_misses"] != 2 || ud.cache.Keys()[0] != 7 {
		t.Fatalf("counters %v, resident %v; want block 0's miss, block 7's miss evicting it, and the hitter's hit", c, ud.cache.Keys())
	}
}

// TestUserDiskBorrowsOnMiss: a miss caches the disk file's own buffer
// instead of a copy of it, and that buffer is never written: the range
// reader and the lender use it as it is, Data and Slice — whose callers may
// write — first move the block into the ubuf's private buffer, and the
// disk file sees the change only when the block is written back.
func TestUserDiskBorrowsOnMiss(t *testing.T) {
	ud, task := newTestUserDisk(t, 8)
	fillDevice(t, ud, task, 4)
	bs := ud.BlockSize()
	onDisk := func(blk int) []byte {
		t.Helper()
		view, err := ud.dev.Borrow(task.Clk, blk)
		if err != nil {
			t.Fatal(err)
		}
		return view
	}

	b, err := ud.BRead(task, 2)
	if err != nil {
		t.Fatal(err)
	}
	ub := b.(*ubuf)
	disk := onDisk(2)
	if !ub.lent || &ub.data[0] != &disk[0] {
		t.Fatal("the miss copied the block instead of caching the disk file's buffer")
	}
	rng := make([]byte, 16)
	if err := ud.ReadBlockRange(task, 2, 100, rng); err != nil || rng[0] != 3 {
		t.Fatalf("ReadBlockRange = %#x, %v", rng[0], err)
	}
	if view, err := ud.BReadView(task, 2); err != nil || &view[0] != &disk[0] {
		t.Fatalf("BReadView did not lend the cached view on (err %v)", err)
	}
	if !ub.lent {
		t.Fatal("a reader unshared the block")
	}

	data, _ := b.Data()
	if ub.lent || &data[0] == &disk[0] || data[0] != 3 || data[bs-1] != 3 {
		t.Fatal("Data handed out the disk file's buffer, or lost its contents")
	}
	data[0] = 0xEE
	if disk[0] != 3 || onDisk(2)[0] != 3 {
		t.Fatal("a write through Data reached the disk file before write-back")
	}
	private, err := ud.BReadView(task, 2)
	if err != nil || private[0] != 0xEE || &private[0] == &data[0] {
		t.Fatalf("BReadView of a privately cached block = %#x (err %v), want a copy of it", private[0], err)
	}
	if err := b.MarkDirty(); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSync(task); err != nil {
		t.Fatal(err)
	}
	if disk[0] != 3 || onDisk(2)[0] != 0xEE {
		t.Fatal("write-back overwrote the lent buffer, or did not reach the disk file")
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}

	s, err := ud.BRead(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := s.Slice(8, 8)
	if err != nil || s.(*ubuf).lent || part[0] != 2 {
		t.Fatalf("Slice = %v (err %v), lent %v: want a private copy", part, err, s.(*ubuf).lent)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestUserDiskOwnership is the userspace disk's buffer-ownership audit,
// in the idiom of storagetest's ownership streams. Seeded streams run
// against a user cache a quarter the size of the blocks they touch, so
// misses keep evicting and recycling: whole-block writes that give their
// page up (BAdopt) or copy into a fresh buffer (BReadNoFill), partial
// writes through Data, journal commits (BClone of home blocks into log
// slots, a synchronous write of each, then the installs), write-backs of
// single blocks, lends (BReadView), range reads, FLUSHes and device
// crashes. The test
// holds every view the disk lent and every page it was given, and fails
// if one changes; every read must return what was last written to the
// block, until a crash makes that unknown.
//
// Hand mutations this test kills: writing through an adopted view (BAdopt
// leaving lent clear), recycling an adopted page as a ubuf's private
// buffer, WriteSync handing a private buffer to the device by reference,
// and BClone aliasing a private home block into its log slot.
func TestUserDiskOwnership(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		userDiskOwnershipStream(t, seed)
	}
}

func userDiskOwnershipStream(t *testing.T, seed int64) {
	const homes, slots, cacheBlocks, calls, keep = 32, 8, 8, 2000, 64
	const blocks = homes + slots // log slots follow the home blocks
	ud, task := newTestUserDisk(t, cacheBlocks)
	bs := ud.BlockSize()
	rng := rand.New(rand.NewSource(seed))

	type held struct {
		buf, want []byte
		what      string
	}
	var holds []held
	checkAll := func(i int, what string) {
		t.Helper()
		for _, h := range holds {
			if !bytes.Equal(h.buf, h.want) {
				t.Fatalf("seed %d call %d (%s): a buffer from %s changed", seed, i, what, h.what)
			}
		}
	}
	hold := func(b []byte, what string) {
		if len(holds) == keep {
			holds = holds[1:]
		}
		holds = append(holds, held{b, bytes.Clone(b), what})
	}
	// last[blk] is what the block must read as; nil once a crash has made
	// that unknown, until the next write.
	last := make([][]byte, blocks)
	for blk := range last {
		last[blk] = make([]byte, bs)
	}
	expect := func(i, blk int, got []byte, what string) {
		t.Helper()
		if last[blk] != nil && !bytes.Equal(got, last[blk]) {
			t.Fatalf("seed %d call %d: %s of block %d does not return its last write", seed, i, what, blk)
		}
	}
	random := func() []byte {
		b := make([]byte, bs)
		rng.Read(b)
		return b
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	release := func(b bentoks.Buffer) { must(b.Release()) }

	for i := 0; i < calls; i++ {
		blk := rng.Intn(homes)
		switch p := rng.Intn(100); {
		case p < 16: // whole-block write, the page given up
			page := random()
			hold(page, "BAdopt")
			b, err := ud.BAdopt(task, blk, page)
			must(err)
			must(b.MarkDirty())
			release(b)
			last[blk] = bytes.Clone(page)
		case p < 22: // whole-block write, copied
			b, err := ud.BReadNoFill(task, blk)
			must(err)
			data, err := b.Data()
			must(err)
			rng.Read(data)
			must(b.MarkDirty())
			last[blk] = bytes.Clone(data)
			release(b)
		case p < 36: // partial write
			b, err := ud.BRead(task, blk)
			must(err)
			data, err := b.Data()
			must(err)
			expect(i, blk, data, "BRead")
			off := rng.Intn(bs)
			rng.Read(data[off : off+rng.Intn(bs-off)+1])
			must(b.MarkDirty())
			last[blk] = bytes.Clone(data)
			release(b)
		case p < 46: // commit: log copies, then the installs
			n := rng.Intn(slots) + 1
			logged := rng.Perm(homes)[:n]
			for s, home := range logged {
				src, err := ud.BRead(task, home)
				must(err)
				dst, err := ud.BClone(task, homes+s, src)
				must(err)
				must(dst.WriteSync(task))
				release(dst)
				release(src)
				last[homes+s] = last[home]
			}
			for _, home := range logged {
				b, err := ud.BRead(task, home)
				must(err)
				_, err = b.SubmitWrite(task)
				must(err)
				release(b)
			}
		case p < 54: // write-back
			b, err := ud.BRead(task, blk)
			must(err)
			must(b.WriteSync(task))
			release(b)
		case p < 76: // lend, journal slots included
			blk = rng.Intn(blocks)
			view, err := ud.BReadView(task, blk)
			must(err)
			expect(i, blk, view, "BReadView")
			hold(view, "BReadView")
		case p < 88:
			blk = rng.Intn(blocks)
			got := make([]byte, bs)
			must(ud.ReadBlockRange(task, blk, 0, got))
			expect(i, blk, got, "ReadBlockRange")
		case p < 99:
			must(ud.Flush(task))
		default:
			// What a block reads as is now unknown until it is written: the
			// cache keeps what it holds, the device what survived, and a
			// clean cached block may differ from the device's.
			ud.dev.Crash([]float64{0, 0.5, 1}[rng.Intn(3)], rng.Int63())
			clear(last)
		}
		checkAll(i, "after the call")
	}
}

// TestUserDiskCachedByReference: BAdopt, BClone and BReadView cost what
// their copying twins cost — BReadNoFill and a copy in, BReadNoFill and a
// copy of the source, ReadBlockRange — on hits and on misses that evict,
// and so does writing back what they cached, which goes to the device by
// reference; the page, the log copy, the device and the lent view are
// then one buffer.
func TestUserDiskCachedByReference(t *testing.T) {
	ref, rtask := newTestUserDisk(t, 4)
	cp, ctask := newTestUserDisk(t, 4)
	fillDevice(t, ref, rtask, 16)
	fillDevice(t, cp, ctask, 16)
	bs := ref.BlockSize()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, blk := range []int{1, 2, 1, 9, 10, 11, 12, 2} {
		page := bytes.Repeat([]byte{byte(i + 0x41)}, bs)
		slot := 32 + i%3

		home, err := ref.BAdopt(rtask, blk, page)
		must(err)
		logged, err := ref.BClone(rtask, slot, home)
		must(err)
		must(logged.WriteSync(rtask))
		must(home.WriteSync(rtask))
		if ub, lb := home.(*ubuf), logged.(*ubuf); &ub.data[0] != &page[0] || &lb.data[0] != &page[0] {
			t.Fatalf("block %d: the adopted page or its log copy was copied", blk)
		}
		must(logged.Release())
		must(home.Release())

		chome, err := cp.BReadNoFill(ctask, blk)
		must(err)
		data, err := chome.Data()
		must(err)
		copy(data, page)
		clogged, err := cp.BReadNoFill(ctask, slot)
		must(err)
		ldata, err := clogged.Data()
		must(err)
		copy(ldata, data)
		must(clogged.WriteSync(ctask))
		must(chome.WriteSync(ctask))
		must(clogged.Release())
		must(chome.Release())

		for _, b := range []int{blk, slot, 15 - i} {
			view, err := ref.BReadView(rtask, b)
			must(err)
			got := make([]byte, bs)
			must(cp.ReadBlockRange(ctask, b, 0, got))
			if !bytes.Equal(view, got) {
				t.Fatalf("block %d: BReadView and ReadBlockRange disagree", b)
			}
			if b != 15-i && &view[0] != &page[0] {
				t.Fatalf("block %d: BReadView did not lend the adopted page", b)
			}
		}
		if disk, err := ref.dev.Borrow(rtask.Clk, slot); err != nil || &disk[0] != &page[0] {
			t.Fatalf("slot %d: the device does not hold the page itself (err %v)", slot, err)
		}
		must(cp.dev.Read(ctask.Clk, slot, make([]byte, bs)))
		if a, b := rtask.Clk.NowNS(), ctask.Clk.NowNS(); a != b {
			t.Fatalf("step %d: %d ns by reference, %d by copy", i, a, b)
		}
		if a, b := rtask.Rec().Counters(), ctask.Rec().Counters(); !maps.Equal(a, b) {
			t.Fatalf("step %d: cache and device counters differ: %v vs %v", i, a, b)
		}
	}
	if misses := rtask.Rec().Counters()["buf_misses"]; misses <= int64(ref.cache.Len()) {
		t.Fatalf("%d misses into a cache of %d: no block was evicted; the misses were never exercised", misses, ref.cache.Len())
	}
}
