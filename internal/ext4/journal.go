package ext4

import (
	"fmt"

	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

// recover replays a committed-but-unchckpointed compound transaction.
func (fs *FS) recover(t *kernel.Task) error {
	hb, err := fs.bc.Get(t, int(fs.super.journalStart))
	if err != nil {
		return err
	}
	lh := decodeJHeader(hb.Data())
	if lh.n > 0 {
		var last int64
		for i := uint32(0); i < lh.n; i++ {
			src, err := fs.bc.Get(t, int(fs.super.journalStart+1+i))
			if err != nil {
				return err
			}
			dst, err := fs.bc.GetNoRead(t, int(lh.blocks[i]))
			if err != nil {
				return err
			}
			copy(dst.Data(), src.Data())
			done, err := dst.SubmitWrite(t)
			if err != nil {
				return err
			}
			if done > last {
				last = done
			}
			_ = src.Release()
			_ = dst.Release()
		}
		t.WaitIO("install", last)
		if !fs.cfg.NoBarriers {
			if err := fs.dev.Flush(t.Clk); err != nil {
				return err
			}
		}
	}
	clear(hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if err := hb.Release(); err != nil {
		return err
	}
	if !fs.cfg.NoBarriers {
		return fs.dev.Flush(t.Clk)
	}
	return nil
}

// jheader is the journal's commit record (same shape as the xv6 log
// header but sized for the larger journal).
type jheader struct {
	n      uint32
	blocks []uint32
}

func decodeJHeader(buf []byte) jheader {
	rd := func(off int) uint32 {
		return uint32(buf[off]) | uint32(buf[off+1])<<8 | uint32(buf[off+2])<<16 | uint32(buf[off+3])<<24
	}
	n := rd(0)
	if n > JournalSize {
		n = 0
	}
	h := jheader{n: n, blocks: make([]uint32, n)}
	for i := uint32(0); i < n; i++ {
		h.blocks[i] = rd(int(4 + 4*i))
	}
	return h
}

func encodeJHeader(h jheader, buf []byte) {
	clear(buf)
	wr := func(off int, v uint32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	wr(0, h.n)
	for i, b := range h.blocks {
		wr(4+4*i, b)
	}
}

// beginHandle joins (or starts) the running compound transaction. One
// task runs at a time and a commit finishes inside the call that started
// it, so a handle never begins mid-commit, and endHandle commits at
// CommitThreshold, so the journal is never full: either would be a
// broken contract, not something to wait out. What a task does wait for
// — in virtual time — is the end of a commit it slept through.
func (fs *FS) beginHandle(t *kernel.Task, nblocks int) {
	if fs.committing || uint32(len(fs.txnBlocks)+nblocks) > JournalSize {
		panic(fmt.Sprintf("ext4: beginHandle(%d) found the journal committing=%v with %d of %d blocks joined: "+
			"another task is mid-commit, which the one-runner-at-a-time contract forbids",
			nblocks, fs.committing, len(fs.txnBlocks), JournalSize))
	}
	fs.handles++
	if r := t.Rec(); r != nil && fs.commitEnd > t.Clk.NowNS() {
		r.Span(t.Name, trace.CatJournal, "begin-stall", t.Clk.NowNS(), fs.commitEnd)
		r.Add(trace.CtrJournalStalls, 1)
	}
	t.Clk.AdvanceTo(fs.commitEnd)
}

// jwrite records a mutated buffer in the running transaction. The buffer
// stays dirty in the cache until checkpoint.
func (fs *FS) jwrite(t *kernel.Task, bh *kernel.BufferHead) error {
	bh.MarkDirty()
	blk := uint32(bh.BlockNo())
	if fs.handles == 0 {
		return fmt.Errorf("ext4: journal write outside handle: %w", fsapi.ErrInvalid)
	}
	if fs.inTxn[blk] {
		t.Rec().Add(trace.CtrJournalAbsorbed, 1)
		return nil
	}
	if uint32(len(fs.txnBlocks)) >= JournalSize {
		return fmt.Errorf("ext4: transaction too big: %w", fsapi.ErrNoSpace)
	}
	fs.inTxn[blk] = true
	fs.txnBlocks = append(fs.txnBlocks, blk)
	return nil
}

// endHandle closes a handle. Unlike xv6's end_op, this does NOT commit
// per operation: the transaction keeps accumulating until an fsync needs
// it durable or it crosses the size threshold — jbd2's batching, and the
// reason ext4 leads Table 6.
func (fs *FS) endHandle(t *kernel.Task) error {
	fs.handles--
	if fs.handles > 0 || len(fs.txnBlocks) < CommitThreshold {
		return nil
	}
	return fs.commit(t)
}

// commitBarrier makes everything journaled so far durable before
// returning (fsync/sync path). fsyncs share compound commits — the group
// commit that amortizes ext4's barriers across varmail's 16 threads: the
// running transaction carries every task's handles, so the first fsync
// to arrive commits them all and the others find nothing pending.
func (fs *FS) commitBarrier(t *kernel.Task) error {
	if len(fs.txnBlocks) == 0 {
		return nil
	}
	if fs.handles > 0 {
		panic("ext4: commitBarrier with a handle open: the barrier is its own operation (one runner at a time)")
	}
	return fs.commit(t)
}

// commit commits the running transaction.
func (fs *FS) commit(t *kernel.Task) error {
	fs.committing = true
	blocks := fs.txnBlocks

	var err error
	if len(blocks) > 0 {
		commitStart := t.Clk.NowNS()
		err = fs.commitIO(t, blocks)
		if r := t.Rec(); r != nil {
			r.SpanAB(t.Name, trace.CatJournal, "commit", commitStart, t.Clk.NowNS(), int64(len(blocks)), 0)
			r.Add(trace.CtrJournalCommits, 1)
			r.Add(trace.CtrJournalBlocks, int64(len(blocks)))
		}
	}

	// Reset in place: slice capacity and map buckets carry over to the
	// next compound transaction instead of reallocating each commit. Safe
	// because no handle begins while committing, so no jwrite can append
	// between commitIO consuming `blocks` (an alias of txnBlocks) and
	// this reset.
	fs.txnBlocks = fs.txnBlocks[:0]
	clear(fs.inTxn)
	fs.committing = false
	fs.commits++
	if now := t.Clk.NowNS(); now > fs.commitEnd {
		fs.commitEnd = now
	}
	return err
}

// commitIO performs the compound commit: batched journal writes (the
// device queues stay full, unlike xv6's serial bwrite loop), one barrier
// at the commit record, batched installs, one barrier, checkpoint.
func (fs *FS) commitIO(t *kernel.Task, blocks []uint32) error {
	// Journal data blocks: submit all, wait once.
	var last int64
	for i, home := range blocks {
		src, err := fs.bc.Get(t, int(home))
		if err != nil {
			return err
		}
		dst, err := fs.bc.GetNoRead(t, int(fs.super.journalStart+1+uint32(i)))
		if err != nil {
			return err
		}
		copy(dst.Data(), src.Data())
		done, err := dst.SubmitWrite(t)
		if err != nil {
			return err
		}
		if done > last {
			last = done
		}
		_ = dst.Release()
		_ = src.Release()
	}
	t.WaitIO("journal-write", last)

	// Commit record + barrier.
	hb, err := fs.bc.GetNoRead(t, int(fs.super.journalStart))
	if err != nil {
		return err
	}
	encodeJHeader(jheader{n: uint32(len(blocks)), blocks: blocks}, hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if !fs.cfg.NoBarriers {
		if err := fs.flushBarrier(t); err != nil {
			return err
		}
	}

	// Checkpoint: install home, barrier, clear the record.
	last = 0
	for _, home := range blocks {
		src, err := fs.bc.Get(t, int(home))
		if err != nil {
			return err
		}
		done, err := src.SubmitWrite(t)
		if err != nil {
			return err
		}
		if done > last {
			last = done
		}
		_ = src.Release()
	}
	t.WaitIO("install", last)
	if !fs.cfg.NoBarriers {
		if err := fs.flushBarrier(t); err != nil {
			return err
		}
	}
	clear(hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	return hb.Release()
}

// flushBarrier issues the device FLUSH barrier, recorded as a device
// span on the committing task.
func (fs *FS) flushBarrier(t *kernel.Task) error {
	start := t.Clk.NowNS()
	if err := fs.dev.Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "flush", start, t.Clk.NowNS())
	}
	return nil
}

// txnFits reports whether adding n blocks would exceed the journal; used
// by writers to size their handles like jbd2 credits.
const maxHandleBlocks = layout.MaxOpBlocks
