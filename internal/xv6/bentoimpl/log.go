// Package bentoimpl is the xv6 file system written against the Bento
// file-operations API — the Go rendering of the paper's Rust xv6
// ("Bento" bars in every figure). All device access flows through the
// bentoks.SuperBlock capability; all buffers are borrowed via the safe
// wrappers.
//
// The file system is xv6's design with the paper's §6.1 changes: locks
// around inode and block allocation, and a double-indirect block so files
// reach 4 GiB. With DataBypass off it journals *everything* (data and
// metadata) through a write-ahead log with group commit, as xv6 does —
// the reason the paper mounts ext4 with data=journal for comparison.
// With it on, as the published Bento mount runs (harness.Published), file
// data goes straight to the device and the log carries metadata only; the
// data is ordered data, which each commit record waits for (Log.orderData).
//
// A buffer is released the way the paper's Rust drops a buffer head:
// every acquisition is followed by `defer drop(b, &err)` in the function
// that made it, and no release is written by hand.
package bentoimpl

import (
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

// SyncPolicy selects the durability discipline of log commits.
type SyncPolicy int

const (
	// PolicyWriteBack waits for write completion on commit but issues no
	// device FLUSH — the discipline of the paper's in-kernel xv6
	// variants, which rely on completed writes reaching the device cache.
	PolicyWriteBack SyncPolicy = iota
	// PolicyFlush issues a FLUSH after the log write and after the
	// install, making commits power-loss atomic. Crash-recovery tests
	// run under this policy.
	PolicyFlush
)

// Log is xv6's write-ahead log over the shared log region. Operations
// bracket mutations with BeginOp/EndOp; blocks mutated inside are recorded
// via Write and become durable as one transaction at group commit.
type Log struct {
	fs     *FS
	start  uint32 // log header block
	size   uint32 // log data blocks
	policy SyncPolicy

	outstanding   int
	reserved      uint32 // blocks reserved by in-flight ops
	committing    bool
	blocks        []uint32 // home addresses of logged blocks (the in-memory header)
	inLog         map[uint32]int
	dataEnd       int64 // latest completion of the running transaction's ordered data
	commitEnd     int64 // virtual time the last commit record completed
	checkpointEnd int64 // virtual time the last cleared header completed: the log is free
	commits       int64
	absorbed      int64
}

func newLog(fs *FS, sb layout.Superblock, policy SyncPolicy) *Log {
	return &Log{
		fs:     fs,
		start:  sb.LogStart,
		size:   sb.NLog,
		policy: policy,
		inLog:  make(map[uint32]int),
	}
}

// Commits reports how many transactions have committed (benchmark stat).
func (l *Log) Commits() int64 { return l.commits }

// Recover replays a committed-but-uninstalled transaction after a crash,
// then clears the log. Mount calls it unconditionally.
func (l *Log) Recover(t *kernel.Task) (err error) {
	sb := l.fs.sb
	hb, err := sb.BRead(t, int(l.start))
	if err != nil {
		return err
	}
	defer drop(hb, &err)
	hdata, err := hb.Data()
	if err != nil {
		return err
	}
	lh := layout.DecodeLogHeader(hdata)
	if lh.N > 0 {
		// Install each logged block to its home location.
		var last int64
		for i := uint32(0); i < lh.N; i++ {
			done, err := l.copyBlock(t, l.start+1+i, lh.Blocks[i])
			if err != nil {
				return err
			}
			last = max(last, done)
		}
		t.WaitIO("install", last)
		if l.policy == PolicyFlush {
			if err := sb.Flush(t); err != nil {
				return err
			}
		}
	}
	// Clear the header.
	var empty layout.LogHeader
	empty.Encode(hdata)
	if err := hb.MarkDirty(); err != nil {
		return err
	}
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if l.policy == PolicyFlush {
		return sb.Flush(t)
	}
	return nil
}

// Op is an open transaction handle returned by BeginOp. It is a value:
// every metadata operation begins and ends one, and a heap handle per
// transaction would charge the create/unlink paths an allocation each.
type Op struct {
	n uint32
}

// BeginOp reserves log space for an operation that will dirty at most
// nblocks blocks. One task runs at a time and an operation commits
// before its task yields, so the log is never committing or full when an
// operation begins; finding it so is a broken contract, not something to
// wait out. What a task does wait for — in virtual time — is the end of
// a commit it slept through (the begin-stall below).
func (l *Log) BeginOp(t *kernel.Task, nblocks int) Op {
	if nblocks <= 0 {
		nblocks = 1
	}
	if uint32(nblocks) > l.size {
		panic(fmt.Sprintf("xv6: op reserves %d blocks > log size %d", nblocks, l.size))
	}
	if l.committing || uint32(len(l.blocks))+l.reserved+uint32(nblocks) > l.size {
		panic(fmt.Sprintf("xv6: BeginOp(%d) found the log committing=%v with %d logged + %d reserved of %d blocks: "+
			"another task is mid-transaction, which the one-runner-at-a-time contract forbids",
			nblocks, l.committing, len(l.blocks), l.reserved, l.size))
	}
	l.outstanding++
	l.reserved += uint32(nblocks)
	// A thread that slept through a commit resumes no earlier than the
	// commit's completion in virtual time.
	if r := t.Rec(); r != nil && l.commitEnd > t.Clk.NowNS() {
		r.Span(t.Name, trace.CatJournal, "begin-stall", t.Clk.NowNS(), l.commitEnd)
		r.Add(trace.CtrJournalStalls, 1)
	}
	t.Clk.AdvanceTo(l.commitEnd)
	return Op{n: uint32(nblocks)}
}

// Write records bh's block in the current transaction (log_write). The
// buffer stays dirty in the cache until the commit installs it.
func (l *Log) Write(t *kernel.Task, bh bentoks.Buffer) error {
	if err := bh.MarkDirty(); err != nil {
		return err
	}
	blk := uint32(bh.BlockNo())
	if l.outstanding == 0 {
		return fmt.Errorf("xv6: log write outside transaction: %w", fsapi.ErrInvalid)
	}
	if _, dup := l.inLog[blk]; dup {
		l.absorbed++ // absorption: block already in this transaction
		t.Rec().Add(trace.CtrJournalAbsorbed, 1)
		return nil
	}
	if uint32(len(l.blocks)) >= l.size {
		return fmt.Errorf("xv6: transaction too big: %w", fsapi.ErrNoSpace)
	}
	l.inLog[blk] = len(l.blocks)
	l.blocks = append(l.blocks, blk)
	return nil
}

// orderData makes a batch of direct data writes that completes at end
// ordered data of the running transaction, as jbd2's ordered mode does:
// the commit record is submitted only once the data has completed, and an
// operation that commits nothing waits for its data as it ends. The data
// is submitted but not waited for, so it overlaps the rest of the
// operation and the commit's log slots.
func (l *Log) orderData(end int64) {
	l.dataEnd = max(l.dataEnd, end)
}

// EndOp closes the operation; the last operation out commits the group,
// and returns after the group's ordered data has completed, whether it
// committed or not.
func (l *Log) EndOp(t *kernel.Task, op Op) error {
	l.outstanding--
	l.reserved -= op.n
	if l.outstanding > 0 {
		return nil // an enclosing operation commits
	}
	l.committing = true
	toCommit := l.blocks

	var err error
	if len(toCommit) > 0 {
		commitStart := t.Clk.NowNS()
		err = l.commit(t, toCommit)
		if r := t.Rec(); r != nil {
			r.SpanAB(t.Name, trace.CatJournal, "commit", commitStart, t.Clk.NowNS(), int64(len(toCommit)), 0)
			r.Add(trace.CtrJournalCommits, 1)
			r.Add(trace.CtrJournalBlocks, int64(len(toCommit)))
		}
	}
	t.WaitIO("write-batch", l.dataEnd)

	// Reset in place: the slice capacity and map buckets are reused by
	// the next transaction instead of reallocated per commit.
	l.blocks = l.blocks[:0]
	clear(l.inLog)
	l.dataEnd = 0
	l.committing = false
	l.commits++
	if now := t.Clk.NowNS(); now > l.commitEnd {
		l.commitEnd = now
	}
	return err
}

// endOp is EndOp deferred by an operation with a named result err, the
// shape of drop: a failed commit becomes the operation's error unless it
// already has one, so a mutation that never became durable does not
// report success.
func (l *Log) endOp(t *kernel.Task, op Op, err *error) {
	if e := l.EndOp(t, op); *err == nil {
		*err = e
	}
}

// ForceCommit runs an empty transaction, guaranteeing everything logged
// before the call is on disk when it returns (fsync path).
func (l *Log) ForceCommit(t *kernel.Task) error {
	op := l.BeginOp(t, 1)
	return l.EndOp(t, op)
}

// drain commits what is logged and waits out its checkpoint, so the log
// is idle: an instance's last act before it is destroyed or hands the
// disk to its replacement, whose first commit must not reuse the log
// before this instance's cleared header has completed.
func (l *Log) drain(t *kernel.Task) error {
	err := l.ForceCommit(t)
	t.WaitJournal("checkpoint-wait", l.checkpointEnd)
	return err
}

// commit is xv6's four-step commit: copy dirty home blocks into the log
// region, write the header (the commit point), install the blocks home,
// and clear the header. The log copy is the disk's BClone, which shares a
// home block's contents instead of copying them when they are immutable.
//
// The commit returns once its header has completed. Steps 3 and 4, the
// checkpoint, are still issued inside the call, in the same order, so
// their errors fail the commit; but they run on the disk's journal task,
// whose clock starts at the header's completion, as jbd2 checkpoints off
// the committing thread. The next commit waits for the checkpoint before
// it reuses the log.
func (l *Log) commit(t *kernel.Task, blocks []uint32) (err error) {
	sb := l.fs.sb
	t.WaitJournal("checkpoint-wait", l.checkpointEnd)

	// Step 1: write the log data blocks as one batch: submit every slot,
	// then wait once for the later of the latest slot's completion and the
	// transaction's ordered data, as jbd2 does. The header is submitted
	// only after every slot and every data block has completed. A disk
	// with no asynchronous submission (the FUSE daemon's pwrite) completes
	// each slot before submitting the next, so there the batch stays
	// serial.
	var last int64
	for i, home := range blocks {
		done, err := l.copyBlock(t, home, l.start+1+uint32(i))
		if err != nil {
			return err
		}
		last = max(last, done)
	}
	t.WaitIO("journal-write", max(last, l.dataEnd))

	// Step 2: header write = commit point.
	var lh layout.LogHeader
	lh.N = uint32(len(blocks))
	copy(lh.Blocks[:], blocks)
	hb, err := sb.BReadNoFill(t, int(l.start))
	if err != nil {
		return err
	}
	defer drop(hb, &err)
	hdata, err := hb.Data()
	if err != nil {
		return err
	}
	lh.Encode(hdata)
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if l.policy == PolicyFlush {
		if err := sb.Flush(t); err != nil {
			return err
		}
	}

	// Step 3: install transactions home (batched submits), on the
	// journal task from here on.
	jt := sb.JournalTask(t)
	jt.Clk.AdvanceTo(t.Clk.NowNS())
	defer func() { l.checkpointEnd = jt.Clk.NowNS() }()
	last = 0
	for _, home := range blocks {
		done, err := l.submitHome(jt, home)
		if err != nil {
			return err
		}
		last = max(last, done)
	}
	jt.WaitIO("install", last)
	if l.policy == PolicyFlush {
		if err := sb.Flush(jt); err != nil {
			return err
		}
	}

	// Step 4: clear the header.
	lh = layout.LogHeader{}
	lh.Encode(hdata)
	if err := hb.WriteSync(jt); err != nil {
		return err
	}
	if l.policy == PolicyFlush {
		return sb.Flush(jt)
	}
	return nil
}

// copyBlock submits a write of block from's contents to block to and
// returns its completion: a commit's log slot (home to log) and a
// recovery's install (log to home). At commit the read is a cache hit:
// logged blocks are dirty in cache.
func (l *Log) copyBlock(t *kernel.Task, from, to uint32) (done int64, err error) {
	src, err := l.fs.sb.BRead(t, int(from))
	if err != nil {
		return 0, err
	}
	defer drop(src, &err)
	dst, err := l.fs.sb.BClone(t, int(to), src)
	if err != nil {
		return 0, err
	}
	defer drop(dst, &err)
	return dst.SubmitWrite(t)
}

// submitHome submits the write of logged block blk to its home location
// and returns its completion: a commit's install.
func (l *Log) submitHome(t *kernel.Task, blk uint32) (done int64, err error) {
	src, err := l.fs.sb.BRead(t, int(blk))
	if err != nil {
		return 0, err
	}
	defer drop(src, &err)
	return src.SubmitWrite(t)
}

// drop releases b: it is Rust's drop of a buffer head, written as one
// `defer drop(b, &err)` right after each acquisition, so a buffer goes
// back on every path out of the function that took it. A failed release
// becomes the function's error unless it already has one.
func drop(b bentoks.Buffer, err *error) {
	if e := b.Release(); *err == nil {
		*err = e
	}
}
