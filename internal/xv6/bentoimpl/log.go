// Package bentoimpl is the xv6 file system written against the Bento
// file-operations API — the Go rendering of the paper's Rust xv6
// ("Bento" bars in every figure). All device access flows through the
// bentoks.SuperBlock capability; all buffers are borrowed via the safe
// wrappers.
//
// The file system is xv6's design with the paper's §6.1 changes: locks
// around inode and block allocation, and a double-indirect block so files
// reach 4 GiB. Like xv6 it journals *everything* (data and metadata)
// through a write-ahead log with group commit — the reason the paper
// mounts ext4 with data=journal for comparison.
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

	outstanding int
	reserved    uint32 // blocks reserved by in-flight ops
	committing  bool
	blocks      []uint32 // home addresses of logged blocks (the in-memory header)
	inLog       map[uint32]int
	commitEnd   int64 // virtual time the last commit finished
	commits     int64
	absorbed    int64
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
func (l *Log) Recover(t *kernel.Task) error {
	sb := l.fs.sb
	hb, err := sb.BRead(t, int(l.start))
	if err != nil {
		return err
	}
	hdata, err := hb.Data()
	if err != nil {
		return err
	}
	lh := layout.DecodeLogHeader(hdata)
	if lh.N > 0 {
		// Install each logged block to its home location.
		var last int64
		for i := uint32(0); i < lh.N; i++ {
			src, err := sb.BRead(t, int(l.start+1+i))
			if err != nil {
				return err
			}
			dst, err := sb.BClone(t, int(lh.Blocks[i]), src)
			if err != nil {
				return err
			}
			done, err := dst.SubmitWrite(t)
			if err != nil {
				return err
			}
			if done > last {
				last = done
			}
			if err := src.Release(); err != nil {
				return err
			}
			if err := dst.Release(); err != nil {
				return err
			}
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
	if err := hb.Release(); err != nil {
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

// EndOp closes the operation; the last operation out commits the group.
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

	// Reset in place: the slice capacity and map buckets are reused by
	// the next transaction instead of reallocated per commit.
	l.blocks = l.blocks[:0]
	clear(l.inLog)
	l.committing = false
	l.commits++
	if now := t.Clk.NowNS(); now > l.commitEnd {
		l.commitEnd = now
	}
	return err
}

// ForceCommit runs an empty transaction, guaranteeing everything logged
// before the call is on disk when it returns (fsync path).
func (l *Log) ForceCommit(t *kernel.Task) error {
	op := l.BeginOp(t, 1)
	return l.EndOp(t, op)
}

// commit is xv6's four-step commit: copy dirty home blocks into the log
// region (synchronous writes, one per block, like xv6's bwrite), write
// the header (the commit point), install the blocks home, and clear the
// header. The log copy is the disk's BClone, which shares a home block's
// contents instead of copying them when they are immutable.
func (l *Log) commit(t *kernel.Task, blocks []uint32) error {
	sb := l.fs.sb

	// Step 1: write log data blocks. xv6's bwrite is synchronous per
	// block; this serialization is a real cost the in-kernel variants pay
	// on every commit.
	for i, home := range blocks {
		src, err := sb.BRead(t, int(home)) // cache hit: logged blocks are dirty in cache
		if err != nil {
			return err
		}
		dst, err := sb.BClone(t, int(l.start+1+uint32(i)), src)
		if err != nil {
			return err
		}
		if err := dst.WriteSync(t); err != nil {
			return err
		}
		if err := dst.Release(); err != nil {
			return err
		}
		if err := src.Release(); err != nil {
			return err
		}
	}

	// Step 2: header write = commit point.
	var lh layout.LogHeader
	lh.N = uint32(len(blocks))
	copy(lh.Blocks[:], blocks)
	hb, err := sb.BReadNoFill(t, int(l.start))
	if err != nil {
		return err
	}
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

	// Step 3: install transactions home (batched submits).
	var last int64
	for _, home := range blocks {
		src, err := sb.BRead(t, int(home))
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
		if err := src.Release(); err != nil {
			return err
		}
	}
	t.WaitIO("install", last)
	if l.policy == PolicyFlush {
		if err := sb.Flush(t); err != nil {
			return err
		}
	}

	// Step 4: clear the header.
	lh = layout.LogHeader{}
	lh.Encode(hdata)
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if err := hb.Release(); err != nil {
		return err
	}
	if l.policy == PolicyFlush {
		return sb.Flush(t)
	}
	return nil
}
