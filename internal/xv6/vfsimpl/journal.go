package vfsimpl

import (
	"encoding/binary"
	"fmt"

	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

// A Journal is the commit policy of the file system's log: when the
// running transaction commits, and which barriers order its writes.
// Everything around it is the FS's and the same under either policy: the
// per-operation credit and the begin stall, absorption, the batched log
// write, the commit span and counters, the in-place reset, the commit
// record, and recovery.
type Journal interface {
	// capacity is the log's data region in blocks; one transaction must
	// fit.
	capacity() uint32
	// due reports whether the last operation to end commits a
	// transaction of n blocks.
	due(n int) bool
	// sync makes everything logged durable (fsync, sync, unmount).
	sync(fs *FS, t *kernel.Task) error
	// barrier orders a commit's writes at one of its three points: after
	// the commit record (0), after the install (1), after the cleared
	// record (2).
	barrier(fs *FS, t *kernel.Task, point int) error
}

// PerOpLog is xv6's log, the C-Kernel's: every operation commits as it
// ends, and with barriers a FLUSH follows each of the commit's three
// points. Bento's bentoimpl.Log keeps the same policy.
func PerOpLog() Journal { return perOpLog{} }

type perOpLog struct{}

func (perOpLog) capacity() uint32 { return layout.LogSize }

func (perOpLog) due(int) bool { return true }

// sync is an empty operation: it waits out the last commit and commits
// nothing, every operation having committed as it ended.
func (perOpLog) sync(fs *FS, t *kernel.Task) error {
	fs.beginOp(t)
	return fs.endOp(t)
}

func (perOpLog) barrier(fs *FS, t *kernel.Task, _ int) error {
	if !fs.barriers {
		return nil
	}
	return fs.dev.Flush(t.Clk)
}

// Compound is jbd2's journal, ext4's: operations join a running compound
// transaction that commits once the last open operation ends with
// threshold blocks joined, or on fsync/sync — not per operation. With
// barriers one FLUSH, recorded as a device span, follows the commit
// record and one the install: paid once per compound commit.
func Compound(capacity uint32, threshold int) Journal { return compound{capacity, threshold} }

type compound struct {
	blocks    uint32
	threshold int
}

func (j compound) capacity() uint32 { return j.blocks }

func (j compound) due(n int) bool { return n >= j.threshold }

// sync commits what is pending. fsyncs share compound commits — the group
// commit that amortizes ext4's barriers across varmail's 16 threads: the
// running transaction carries every task's operations, so the first fsync
// to arrive commits them all and the others find nothing pending.
func (compound) sync(fs *FS, t *kernel.Task) error {
	if len(fs.logBlocks) == 0 {
		return nil
	}
	if fs.outstanding > 0 {
		panic(fs.name + ": sync with an operation open: the barrier is its own operation (one runner at a time)")
	}
	return fs.commit(t)
}

func (compound) barrier(fs *FS, t *kernel.Task, point int) error {
	if !fs.barriers || point == 2 {
		return nil
	}
	start := t.Clk.NowNS()
	if err := fs.dev.Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "flush", start, t.Clk.NowNS())
	}
	return nil
}

// recover replays a committed transaction the log still holds.
func (fs *FS) recover(t *kernel.Task) error {
	hb, err := fs.bc.Get(t, int(fs.super.LogStart))
	if err != nil {
		return err
	}
	if blocks := decodeHeader(hb.Data(), fs.logCap); len(blocks) > 0 {
		var last int64
		for i, home := range blocks {
			src, err := fs.bc.Get(t, int(fs.super.LogStart+1+uint32(i)))
			if err != nil {
				return released(err, hb)
			}
			dst, err := fs.bc.GetNoRead(t, int(home))
			if err != nil {
				return released(err, src, hb)
			}
			copy(dst.Data(), src.Data())
			done, err := dst.SubmitWrite(t)
			if err != nil {
				return released(err, dst, src, hb)
			}
			last = max(last, done)
			_ = src.Release()
			_ = dst.Release()
		}
		t.WaitIO("install", last)
		if fs.barriers {
			if err := fs.dev.Flush(t.Clk); err != nil {
				return released(err, hb)
			}
		}
	}
	encodeHeader(hb.Data(), nil, fs.logCap)
	if err := hb.WriteSync(t); err != nil {
		return released(err, hb)
	}
	if err := hb.Release(); err != nil {
		return err
	}
	if fs.barriers {
		return fs.dev.Flush(t.Clk)
	}
	return nil
}

// beginOp opens an operation with one credit of layout.MaxOpBlocks. One
// task runs at a time and a commit finishes inside the call that started
// it, so an operation never begins mid-commit, and the journal commits
// before its open credits could overrun it: either would be a broken
// contract, not something to wait out. What a task does wait for — in
// virtual time — is the end of a commit it slept through.
func (fs *FS) beginOp(t *kernel.Task) {
	if fs.committing || uint32(len(fs.logBlocks)+(fs.outstanding+1)*layout.MaxOpBlocks) > fs.logCap {
		panic(fmt.Sprintf("%s: beginOp found the log committing=%v with %d blocks logged and %d operations open of %d blocks: "+
			"another task is mid-transaction, which the one-runner-at-a-time contract forbids",
			fs.name, fs.committing, len(fs.logBlocks), fs.outstanding, fs.logCap))
	}
	fs.outstanding++
	if r := t.Rec(); r != nil && fs.commitEnd > t.Clk.NowNS() {
		r.Span(t.Name, trace.CatJournal, "begin-stall", t.Clk.NowNS(), fs.commitEnd)
		r.Add(trace.CtrJournalStalls, 1)
	}
	t.Clk.AdvanceTo(fs.commitEnd)
}

// logWrite joins a mutated buffer to the running transaction. The buffer
// stays dirty in the cache until the commit installs it.
func (fs *FS) logWrite(t *kernel.Task, bh *kernel.BufferHead) error {
	bh.MarkDirty()
	blk := uint32(bh.BlockNo())
	if fs.outstanding == 0 {
		return fmt.Errorf("%s: log write outside an operation: %w", fs.name, fsapi.ErrInvalid)
	}
	if fs.inLog[blk] {
		t.Rec().Add(trace.CtrJournalAbsorbed, 1)
		return nil
	}
	if uint32(len(fs.logBlocks)) >= fs.logCap {
		return fmt.Errorf("%s: transaction too big: %w", fs.name, fsapi.ErrNoSpace)
	}
	fs.inLog[blk] = true
	fs.logBlocks = append(fs.logBlocks, blk)
	return nil
}

// orderData makes a batch of direct data writes that completes at end
// ordered data of the running transaction, as jbd2's ordered mode does:
// its commit record is submitted only once the data has completed, and an
// operation that ends without committing waits for its own data as it
// ends. The data is submitted but not waited for, so it overlaps the rest
// of the operation and the commit's log slots.
func (fs *FS) orderData(end int64) {
	fs.dataEnd = max(fs.dataEnd, end)
	fs.opDataEnd = max(fs.opDataEnd, end)
}

// endOp closes an operation; the last one to close commits when the
// journal says the transaction is due, and returns after the operations'
// ordered data has completed, whether it committed or not.
func (fs *FS) endOp(t *kernel.Task) error {
	fs.outstanding--
	if fs.outstanding > 0 {
		return nil
	}
	var err error
	if fs.log.due(len(fs.logBlocks)) {
		err = fs.commit(t)
	}
	t.WaitIO("write-batch", fs.opDataEnd)
	fs.opDataEnd = 0
	return err
}

// endOpInto closes an operation from a defer. The commit's error becomes
// the operation's when the operation itself succeeded, so a mutation
// whose commit failed never reports success.
func (fs *FS) endOpInto(t *kernel.Task, err *error) {
	if e := fs.endOp(t); *err == nil {
		*err = e
	}
}

// commit commits the running transaction.
func (fs *FS) commit(t *kernel.Task) error {
	fs.committing = true
	blocks := fs.logBlocks

	var err error
	if len(blocks) > 0 {
		commitStart := t.Clk.NowNS()
		err = fs.writeCommit(t, blocks)
		if r := t.Rec(); r != nil {
			r.SpanAB(t.Name, trace.CatJournal, "commit", commitStart, t.Clk.NowNS(), int64(len(blocks)), 0)
			r.Add(trace.CtrJournalCommits, 1)
			r.Add(trace.CtrJournalBlocks, int64(len(blocks)))
		}
	}

	// Reset in place: slice capacity and map buckets carry to the next
	// transaction instead of being reallocated per commit. Safe because
	// no operation begins while committing, so nothing can append between
	// writeCommit consuming blocks (an alias of logBlocks) and this reset.
	fs.logBlocks = fs.logBlocks[:0]
	clear(fs.inLog)
	fs.dataEnd = 0
	fs.committing = false
	fs.commits++
	if now := t.Clk.NowNS(); now > fs.commitEnd {
		fs.commitEnd = now
	}
	return err
}

// writeLog copies each home block into its log slot and writes the slots
// as one batch: it submits every slot, then waits once for the later of
// the latest slot's completion and the transaction's ordered data, so the
// commit record that follows is submitted only after every slot and every
// data block has completed.
func (fs *FS) writeLog(t *kernel.Task, blocks []uint32) error {
	var last int64
	for i, home := range blocks {
		src, err := fs.bc.Get(t, int(home))
		if err != nil {
			return err
		}
		dst, err := fs.bc.GetNoRead(t, int(fs.super.LogStart+1+uint32(i)))
		if err != nil {
			return released(err, src)
		}
		copy(dst.Data(), src.Data())
		done, err := dst.SubmitWrite(t)
		if err != nil {
			return released(err, dst, src)
		}
		last = max(last, done)
		_ = dst.Release()
		_ = src.Release()
	}
	t.WaitIO("journal-write", max(last, fs.dataEnd))
	return nil
}

// writeCommit writes blocks to the log, the commit record, the blocks
// home, and the cleared record, with the journal's barriers between. It
// returns once the commit record (and its barrier) has completed: the
// checkpoint — the install and the cleared record — is issued inside the
// call, in the same order, but on the journal thread, whose clock starts
// there, as jbd2 checkpoints off the committing thread. The next commit
// waits for the checkpoint before it reuses the log.
func (fs *FS) writeCommit(t *kernel.Task, blocks []uint32) error {
	t.WaitJournal("checkpoint-wait", fs.checkpointEnd)
	if err := fs.writeLog(t, blocks); err != nil {
		return err
	}
	hb, err := fs.bc.GetNoRead(t, int(fs.super.LogStart))
	if err != nil {
		return err
	}
	encodeHeader(hb.Data(), blocks, fs.logCap)
	if err := hb.WriteSync(t); err != nil {
		return released(err, hb)
	}
	if err := fs.log.barrier(fs, t, 0); err != nil {
		return released(err, hb)
	}
	jt := fs.jthread
	jt.Clk.AdvanceTo(t.Clk.NowNS())
	defer func() { fs.checkpointEnd = jt.Clk.NowNS() }()
	var last int64
	for _, home := range blocks {
		src, err := fs.bc.Get(jt, int(home))
		if err != nil {
			return released(err, hb)
		}
		done, err := src.SubmitWrite(jt)
		if err != nil {
			return released(err, src, hb)
		}
		last = max(last, done)
		_ = src.Release()
	}
	jt.WaitIO("install", last)
	if err := fs.log.barrier(fs, jt, 1); err != nil {
		return released(err, hb)
	}
	encodeHeader(hb.Data(), nil, fs.logCap)
	if err := hb.WriteSync(jt); err != nil {
		return released(err, hb)
	}
	if err := hb.Release(); err != nil {
		return err
	}
	return fs.log.barrier(fs, jt, 2)
}

// released drops the references a failed step still holds and returns
// the step's error: a commit or recovery that fails part-way must not
// leave its buffers pinned in the cache.
func released(err error, held ...*kernel.BufferHead) error {
	for _, b := range held {
		_ = b.Release()
	}
	return err
}

// encodeHeader writes the commit record for blocks — little-endian n,
// then the n home block numbers — into buf, which holds zeros or an
// earlier record of a log of this capacity: it clears only the entries
// that record had beyond n, not the whole block.
func encodeHeader(buf []byte, blocks []uint32, capacity uint32) {
	le := binary.LittleEndian
	prev := min(le.Uint32(buf), capacity)
	n := uint32(len(blocks))
	le.PutUint32(buf, n)
	for i, b := range blocks {
		le.PutUint32(buf[4+4*i:], b)
	}
	if prev > n {
		clear(buf[4+4*n : 4+4*prev])
	}
}

// decodeHeader returns the home blocks of the commit record in buf. A
// count beyond capacity is a corrupt record and reads as an empty log.
func decodeHeader(buf []byte, capacity uint32) []uint32 {
	le := binary.LittleEndian
	n := le.Uint32(buf)
	if n > capacity {
		return nil
	}
	blocks := make([]uint32, n)
	for i := range blocks {
		blocks[i] = le.Uint32(buf[4+4*i:])
	}
	return blocks
}
