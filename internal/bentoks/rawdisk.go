package bentoks

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
)

// RawDisk is Disk straight on the kernel buffer cache, the way a C file
// system calls sb_bread: no capability check, no wrapper charge, no
// ownership checker. It is the disk the C-Kernel and ext4 mount the xv6
// file system on, so the one file system runs under both APIs and they
// differ only in what the paper compares — the checked wrappers, or the
// raw cache. Like the SuperBlock it has the direct data path.
type RawDisk struct {
	bc      *kernel.BufferCache
	journal *kernel.Task // the mount's journal thread, made with the disk
}

// NewRawDisk returns the disk over bc, with the mount's journal thread.
func NewRawDisk(t *kernel.Task, bc *kernel.BufferCache) *RawDisk {
	return &RawDisk{bc: bc, journal: t.Kernel().NewTask("journal")}
}

// BufferCache exposes the cache (held-buffer checks, drop_caches, tests).
func (d *RawDisk) BufferCache() *kernel.BufferCache { return d.bc }

// Device exposes the device under the cache.
func (d *RawDisk) Device() *blockdev.Device { return d.bc.Device() }

// DropCleanBuffers evicts clean, unreferenced buffers.
func (d *RawDisk) DropCleanBuffers() int { return d.bc.DropClean() }

// BlockSize implements Disk.
func (d *RawDisk) BlockSize() int { return d.bc.Device().BlockSize() }

// Blocks implements Disk.
func (d *RawDisk) Blocks() int { return d.bc.Device().Blocks() }

// BRead implements Disk.
func (d *RawDisk) BRead(t *kernel.Task, blk int) (Buffer, error) {
	kb, err := d.bc.Get(t, blk)
	if err != nil {
		return nil, err
	}
	return (*rawBuffer)(kb), nil
}

// BReadAhead implements Disk.
func (d *RawDisk) BReadAhead(t *kernel.Task, blks []int) error { return d.bc.ReadAhead(t, blks) }

// BReadNoFill implements Disk.
func (d *RawDisk) BReadNoFill(t *kernel.Task, blk int) (Buffer, error) {
	kb, err := d.bc.GetNoRead(t, blk)
	if err != nil {
		return nil, err
	}
	return (*rawBuffer)(kb), nil
}

// BAdopt implements Disk by copying, as the SuperBlock does.
func (d *RawDisk) BAdopt(t *kernel.Task, blk int, data []byte) (Buffer, error) {
	if len(data) != d.BlockSize() {
		return nil, blockdev.ErrBadSize
	}
	kb, err := d.bc.GetNoRead(t, blk)
	if err != nil {
		return nil, err
	}
	copy(kb.Data(), data)
	return (*rawBuffer)(kb), nil
}

// BClone implements Disk by copying src's contents.
func (d *RawDisk) BClone(t *kernel.Task, blk int, src Buffer) (Buffer, error) {
	sdata, err := src.Data()
	if err != nil {
		return nil, err
	}
	kb, err := d.bc.GetNoRead(t, blk)
	if err != nil {
		return nil, err
	}
	copy(kb.Data(), sdata)
	return (*rawBuffer)(kb), nil
}

// ReadBlockRange implements Disk: get, copy, brelse.
func (d *RawDisk) ReadBlockRange(t *kernel.Task, blk, off int, dst []byte) error {
	kb, err := d.bc.Get(t, blk)
	if err != nil {
		return err
	}
	data := kb.Data()
	if off < 0 || off+len(dst) > len(data) {
		_ = kb.Release()
		return fmt.Errorf("bentoks: range [%d:%d) of %d-byte block %d: %w",
			off, off+len(dst), len(data), blk, fsapi.ErrInvalid)
	}
	copy(dst, data[off:])
	return kb.Release()
}

// Flush implements Disk: a device FLUSH, recorded as a device span.
func (d *RawDisk) Flush(t *kernel.Task) error {
	start := t.Clk.NowNS()
	if err := d.Device().Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "flush", start, t.Clk.NowNS())
	}
	return nil
}

// JournalTask implements Disk: the journal thread made with the disk, or
// on first use by a disk made without one (the SuperBlock's).
func (d *RawDisk) JournalTask(t *kernel.Task) *kernel.Task {
	if d.journal == nil {
		d.journal = t.Kernel().NewTask("journal")
	}
	return d.journal
}

// BReadDirect implements DirectDisk.
func (d *RawDisk) BReadDirect(t *kernel.Task, blk int, buf []byte) error {
	return d.bc.ReadDirect(t, blk, buf)
}

// BBorrowDirect implements DirectDisk.
func (d *RawDisk) BBorrowDirect(t *kernel.Task, blk int) ([]byte, error) {
	return d.bc.BorrowDirect(t, blk)
}

// BWriteDirect implements DirectDisk.
func (d *RawDisk) BWriteDirect(t *kernel.Task, blk int, buf []byte) (int64, error) {
	return d.bc.WriteDirect(t, blk, buf)
}

// BWriteOwned implements DirectDisk.
func (d *RawDisk) BWriteOwned(t *kernel.Task, blk int, buf []byte) (int64, error) {
	return d.bc.WriteDirectOwned(t, blk, buf)
}

var (
	_ Disk       = (*RawDisk)(nil)
	_ DirectDisk = (*RawDisk)(nil)
)

// rawBuffer is the kernel buffer head itself as a Buffer: a conversion,
// not a wrapper, so a borrow allocates nothing and nothing tracks it.
type rawBuffer kernel.BufferHead

func (b *rawBuffer) kb() *kernel.BufferHead { return (*kernel.BufferHead)(b) }

// BlockNo implements Buffer.
func (b *rawBuffer) BlockNo() int { return b.kb().BlockNo() }

// Data implements Buffer.
func (b *rawBuffer) Data() ([]byte, error) { return b.kb().Data(), nil }

// View implements Buffer.
func (b *rawBuffer) View() ([]byte, error) { return b.kb().Data(), nil }

// Slice implements Buffer.
func (b *rawBuffer) Slice(off, n int) ([]byte, error) {
	data := b.kb().Data()
	if off < 0 || n < 0 || off+n > len(data) {
		return nil, fmt.Errorf("bentoks: slice [%d:%d) of %d-byte block %d: %w",
			off, off+n, len(data), b.BlockNo(), fsapi.ErrInvalid)
	}
	return data[off : off+n], nil
}

// MarkDirty implements Buffer.
func (b *rawBuffer) MarkDirty() error {
	b.kb().MarkDirty()
	return nil
}

// SubmitWrite implements Buffer.
func (b *rawBuffer) SubmitWrite(t *kernel.Task) (int64, error) { return b.kb().SubmitWrite(t) }

// WriteSync implements Buffer.
func (b *rawBuffer) WriteSync(t *kernel.Task) error { return b.kb().WriteSync(t) }

// Release implements Buffer.
func (b *rawBuffer) Release() error { return b.kb().Release() }
