package fuse

import (
	"bytes"
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/lru"
	"bento/internal/trace"
)

// UserDisk implements bentoks.Disk for a file system running in
// userspace: block I/O goes through the O_DIRECT "disk file" interface
// (paper §6.2), so every block read or write is a synchronous system
// call, writes cannot overlap on the device queue, and durability
// requires fsync of the whole disk file — a full device FLUSH. It keeps
// a user-level buffer cache, as the paper's Rust FUSE xv6 did, built on
// the same O(1) intrusive-LRU infrastructure as the kernel buffer cache.
//
// A UserDisk is private to its daemon: every call runs inside a Session
// round trip, or at mount before the Driver exists. A miss on a full
// cache therefore recycles the clean, unpinned block the LRU just
// evicted instead of allocating a new one — nobody can still be looking
// at it, since what the disk lends is never a block's private buffer.
//
// It has no direct path (it is no bentoks.DirectDisk): a userspace file
// system cannot DMA into kernel pages, so the daemon's file data goes
// through this cache and the journal.
type UserDisk struct {
	dev *blockdev.Device

	cache *lru.Cache[*ubuf]
}

// NewUserDisk opens the disk file O_DIRECT-style over dev. Victim
// selection is exactly global LRU.
func NewUserDisk(dev *blockdev.Device, cacheBlocks int) *UserDisk {
	if cacheBlocks <= 0 {
		cacheBlocks = kernel.DefaultBufferCacheCap
	}
	return &UserDisk{dev: dev, cache: lru.New[*ubuf](cacheBlocks)}
}

// ubuf is a userspace cached block. Like the kernel BufferHead it enters
// the cache only once its pread has succeeded.
//
// A block is not copied in or out when it does not have to be. data is
// either the ubuf's private buffer, own, or an immutable view with lent
// set: the device's own buffer, borrowed on a miss
// (blockdev.Device.Borrow); a page a whole-block write gave up (BAdopt);
// or another block's immutable view (BClone, the journal's log copy).
// Readers inside this file use a view as it is, lend it on (BReadView)
// and write it back by reference (Device.SubmitOwned);
// Data and Slice, whose callers may write through what they get, first
// replace it with a copy in own. A view is never written and never
// becomes own, and own is never lent or handed to the device.
type ubuf struct {
	node lru.Node
	ud   *UserDisk
	data []byte
	lent bool   // data is an immutable view
	own  []byte // the private buffer; nil until data first has to be one
}

// private makes data the ubuf's own buffer, contents unspecified.
func (b *ubuf) private() {
	if b.own == nil {
		b.own = make([]byte, b.ud.dev.BlockSize())
	}
	b.data, b.lent = b.own, false
}

// writable makes data safe to write through, keeping its contents.
func (b *ubuf) writable() {
	if b.lent {
		view := b.data
		b.private()
		copy(b.data, view)
	}
}

// LRUNode exposes the intrusive cache hook (lru.Entry).
func (b *ubuf) LRUNode() *lru.Node { return &b.node }

var (
	_ bentoks.Disk        = (*UserDisk)(nil)
	_ bentoks.BlockLender = (*UserDisk)(nil)
)

// BlockSize implements bentoks.Disk.
func (ud *UserDisk) BlockSize() int { return ud.dev.BlockSize() }

// Blocks implements bentoks.Disk.
func (ud *UserDisk) Blocks() int { return ud.dev.Blocks() }

// Held reports how many cached blocks the hosted file system holds a
// reference to: 0 once it has given back every buffer it took.
func (ud *UserDisk) Held() int { return ud.cache.Held() }

// BRead implements bentoks.Disk: a user-cache probe, with a pread(2) of
// the disk file on a miss.
func (ud *UserDisk) BRead(t *kernel.Task, blk int) (bentoks.Buffer, error) {
	b, err := ud.get(t, blk, true)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// BReadAhead implements bentoks.Disk: a pread is synchronous, so the
// blocks are read one after another, each a BRead and Release.
func (ud *UserDisk) BReadAhead(t *kernel.Task, blks []int) error {
	for _, blk := range blks {
		b, err := ud.get(t, blk, true)
		if err != nil {
			return err
		}
		if err := b.Release(); err != nil {
			return err
		}
	}
	return nil
}

// BReadNoFill implements bentoks.Disk.
func (ud *UserDisk) BReadNoFill(t *kernel.Task, blk int) (bentoks.Buffer, error) {
	b, err := ud.get(t, blk, false)
	if err != nil {
		return nil, err
	}
	if b.data == nil {
		b.private()
		clear(b.data)
	}
	return b, nil
}

// BAdopt implements bentoks.Disk: BReadNoFill with data itself, which the
// caller has given up, as the cached block — an immutable view, written
// back by reference.
func (ud *UserDisk) BAdopt(t *kernel.Task, blk int, data []byte) (bentoks.Buffer, error) {
	if len(data) != ud.dev.BlockSize() {
		return nil, blockdev.ErrBadSize
	}
	b, err := ud.get(t, blk, false)
	if err != nil {
		return nil, err
	}
	b.data, b.lent = data, true
	return b, nil
}

// BClone implements bentoks.Disk: BReadNoFill sharing src's view when src
// holds one, and holding a copy of src's private buffer otherwise. src
// must be a buffer of this disk.
func (ud *UserDisk) BClone(t *kernel.Task, blk int, src bentoks.Buffer) (bentoks.Buffer, error) {
	s, ok := src.(*ubuf)
	if !ok || s.ud != ud {
		return nil, fmt.Errorf("userdisk: clone into block %d of a foreign buffer: %w", blk, fsapi.ErrInvalid)
	}
	b, err := ud.get(t, blk, false)
	if err != nil {
		return nil, err
	}
	if s.lent {
		b.data, b.lent = s.data, true
	} else {
		b.private()
		copy(b.data, s.data)
	}
	return b, nil
}

// BReadView implements bentoks.BlockLender: ReadBlockRange of the whole
// block, returning the cached view itself, or a copy of a private block.
func (ud *UserDisk) BReadView(t *kernel.Task, blk int) ([]byte, error) {
	b, err := ud.get(t, blk, true)
	if err != nil {
		return nil, err
	}
	view := b.data
	if !b.lent {
		view = bytes.Clone(view)
	}
	return view, b.Release()
}

// get returns blk's cached block, pinned, probing the user cache and
// filling a miss with a pread of the disk file. A miss without fill
// leaves data nil for the caller to set.
func (ud *UserDisk) get(t *kernel.Task, blk int, fill bool) (*ubuf, error) {
	if blk < 0 || blk >= ud.dev.Blocks() {
		return nil, fmt.Errorf("userdisk: block %d: %w", blk, fsapi.ErrInvalid)
	}
	t.Charge(t.Model().BufferCacheLookup)
	b, hit, err := ud.cache.Get(int64(blk), func(nb *ubuf, recycled bool) (*ubuf, error) {
		t.Rec().Add(trace.CtrBufMisses, 1)
		var view []byte
		if fill {
			// pread(disk file): syscall + crossing + synchronous device read.
			t.Charge(t.Model().UserBlockSyscall)
			t.Charge(t.Model().Copy(ud.dev.BlockSize()))
			start := t.Clk.NowNS()
			var err error
			if view, err = ud.dev.Borrow(t.Clk, blk); err != nil {
				// The victim, if any, goes with the failed fill.
				return nil, err
			}
			if r := t.Rec(); r != nil {
				r.Span(t.Name, trace.CatDevice, "pread", start, t.Clk.NowNS())
			}
		}
		if recycled {
			nb.node.ResetForReuse()
		} else {
			nb = &ubuf{ud: ud}
		}
		nb.data, nb.lent = view, view != nil
		if fill && view == nil {
			// A block the device has never been written: zeros.
			nb.private()
			clear(nb.data)
		}
		return nb, nil
	})
	if hit {
		t.Rec().Add(trace.CtrBufHits, 1)
	}
	return b, err
}

// ReadBlockRange implements bentoks.Disk: a user-cache borrow bracketed
// inside the call (BRead + copy + Release fused), with the same cost
// shape as BRead.
func (ud *UserDisk) ReadBlockRange(t *kernel.Task, blk, off int, dst []byte) error {
	b, err := ud.get(t, blk, true)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > len(b.data) {
		_ = b.Release()
		return fmt.Errorf("userdisk: range [%d:%d) of %d-byte block %d: %w",
			off, off+len(dst), len(b.data), blk, fsapi.ErrInvalid)
	}
	copy(dst, b.data[off:off+len(dst)])
	return b.Release()
}

// pwrite is one synchronous pwrite(2) of the disk file. With owned set
// the device keeps buf, which nobody writes again (Device.Write by
// reference); otherwise it copies.
func (ud *UserDisk) pwrite(t *kernel.Task, blk int, buf []byte, owned bool) error {
	t.Charge(t.Model().UserBlockSyscall)
	t.Charge(t.Model().Copy(len(buf)))
	start := t.Clk.NowNS()
	var err error
	if owned {
		var done int64
		done, err = ud.dev.SubmitOwned(t.Clk, blk, buf)
		t.Clk.AdvanceTo(done)
	} else {
		err = ud.dev.Write(t.Clk, blk, buf)
	}
	if err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "pwrite", start, t.Clk.NowNS())
	}
	return nil
}

// Flush implements bentoks.Disk: fsync(disk file) — the whole-device
// FLUSH the paper identifies as the dominant userspace cost ("the whole
// disk file must be synced every time one block needs to be synced").
func (ud *UserDisk) Flush(t *kernel.Task) error {
	t.Charge(t.Model().UserBlockSyscall)
	start := t.Clk.NowNS()
	if err := ud.dev.Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "fsync-disk", start, t.Clk.NowNS())
	}
	return nil
}

// JournalTask implements bentoks.Disk: the calling task. A pwrite
// completes before it returns, so the daemon's checkpoint can only run
// on the daemon's own clock, inside the request that committed.
func (ud *UserDisk) JournalTask(t *kernel.Task) *kernel.Task { return t }

// --- ubuf: bentoks.Buffer ---

// BlockNo implements bentoks.Buffer.
func (b *ubuf) BlockNo() int { return int(b.node.Key()) }

// Data implements bentoks.Buffer.
func (b *ubuf) Data() ([]byte, error) {
	b.writable()
	return b.data, nil
}

// View implements bentoks.Buffer: the block as it is, view or private.
func (b *ubuf) View() ([]byte, error) { return b.data, nil }

// Slice implements bentoks.Buffer.
func (b *ubuf) Slice(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(b.data) {
		return nil, fsapi.ErrInvalid
	}
	b.writable()
	return b.data[off : off+n], nil
}

// MarkDirty implements bentoks.Buffer.
func (b *ubuf) MarkDirty() error {
	b.ud.cache.MarkDirty(b)
	return nil
}

// SubmitWrite implements bentoks.Buffer. From userspace there is no async
// submission: a pwrite is synchronous, so the "completion" equals the
// clock after the write — queue-depth batching is structurally
// unavailable, one of the paper's FUSE penalties.
func (b *ubuf) SubmitWrite(t *kernel.Task) (int64, error) {
	if err := b.WriteSync(t); err != nil {
		return 0, err
	}
	return t.Clk.NowNS(), nil
}

// WriteSync implements bentoks.Buffer: pwrite(disk file) + wait. A view
// goes to the device by reference; the private buffer, which stays
// writable, is copied.
func (b *ubuf) WriteSync(t *kernel.Task) error {
	if err := b.ud.pwrite(t, b.BlockNo(), b.data, b.lent); err != nil {
		return err
	}
	b.ud.cache.ClearDirty(b)
	return nil
}

// Release implements bentoks.Buffer.
func (b *ubuf) Release() error {
	if !b.ud.cache.Release(b) {
		return fmt.Errorf("userdisk: double release of block %d: %w", b.BlockNo(), fsapi.ErrInvalid)
	}
	return nil
}
