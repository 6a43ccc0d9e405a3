package vfsimpl

import (
	"bento/internal/blockdev"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
)

// beginOp opens an operation with one credit of layout.MaxOpBlocks.
func (fs *FS) beginOp(t *kernel.Task) { fs.log.BeginOp(t, layout.MaxOpBlocks) }

// endOp closes an operation beginOp opened; a failed commit becomes *err
// unless it already holds an error (journal.Log.EndOp).
func (fs *FS) endOp(t *kernel.Task, err *error) { fs.log.EndOp(t, layout.MaxOpBlocks, err) }

// logWrite marks bh dirty and joins its block to the running
// transaction. The buffer stays dirty in the cache until the commit
// installs it.
func (fs *FS) logWrite(t *kernel.Task, bh *kernel.BufferHead) error {
	bh.MarkDirty()
	return fs.log.Write(t, uint32(bh.BlockNo()))
}

// logDisk is the log's block access (journal.Disk) straight through the
// kernel buffer cache, with manual brelse bookkeeping.
type logDisk struct {
	bc  *kernel.BufferCache
	dev *blockdev.Device
	jt  *kernel.Task // the journal thread the checkpoint runs on
}

// CopyBlock implements journal.Disk.
func (d *logDisk) CopyBlock(t *kernel.Task, from, to uint32) (int64, error) {
	src, err := d.bc.Get(t, int(from))
	if err != nil {
		return 0, err
	}
	dst, err := d.bc.GetNoRead(t, int(to))
	if err != nil {
		return 0, released(err, src)
	}
	copy(dst.Data(), src.Data())
	done, err := dst.SubmitWrite(t)
	if err != nil {
		return 0, released(err, dst, src)
	}
	_ = dst.Release()
	_ = src.Release()
	return done, nil
}

// SubmitHome implements journal.Disk.
func (d *logDisk) SubmitHome(t *kernel.Task, blk uint32) (int64, error) {
	src, err := d.bc.Get(t, int(blk))
	if err != nil {
		return 0, err
	}
	done, err := src.SubmitWrite(t)
	if err != nil {
		return 0, released(err, src)
	}
	_ = src.Release()
	return done, nil
}

// WithHeader implements journal.Disk.
func (d *logDisk) WithHeader(t *kernel.Task, blk uint32, fill bool, use journal.HeaderFunc) error {
	var hb *kernel.BufferHead
	var err error
	if fill {
		hb, err = d.bc.Get(t, int(blk))
	} else {
		hb, err = d.bc.GetNoRead(t, int(blk))
	}
	if err != nil {
		return err
	}
	if err := use(t, hb, hb.Data()); err != nil {
		return released(err, hb)
	}
	return hb.Release()
}

// Flush implements journal.Disk, recorded as a device span.
func (d *logDisk) Flush(t *kernel.Task) error {
	start := t.Clk.NowNS()
	if err := d.dev.Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "flush", start, t.Clk.NowNS())
	}
	return nil
}

// JournalTask implements journal.Disk: the mount's journal thread.
func (d *logDisk) JournalTask(*kernel.Task) *kernel.Task { return d.jt }

// released drops the references a failed step still holds and returns
// the step's error: a commit or recovery that fails part-way must not
// leave its buffers pinned in the cache.
func released(err error, held ...*kernel.BufferHead) error {
	for _, b := range held {
		_ = b.Release()
	}
	return err
}
