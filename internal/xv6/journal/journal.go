// Package journal is xv6's write-ahead log, written once beneath every
// file system of the xv6 design: Bento's (internal/xv6/bentoimpl, which
// the FUSE daemon also hosts), and the C-Kernel's and ext4's
// (internal/xv6/vfsimpl). The paper compares the frameworks those file
// systems are written against, not their logs, so the log algorithm is
// one piece of code and each file system supplies only its block access
// (Disk) through its own API: Bento's through the bentoks wrappers, the
// C-Kernel's and ext4's straight through the kernel buffer cache. Every
// wrapper check, charge and span therefore stays on the API the paper
// compares.
//
// Operations bracket their mutations with BeginOp and EndOp; blocks
// mutated inside are joined to the running transaction by Write and
// become durable together at group commit. A commit is xv6's four steps:
// copy the blocks into the log slots, write the commit record, install
// the blocks home, and clear the record. The record carries a CRC32C of
// the logged blocks (layout.CommitSum), as jbd2's journal_async_commit
// does after IRON's transactional checksums: it is submitted beside the
// slots, once the transaction's ordered data has completed but without
// waiting for the slots, and recovery replays only a record whose
// checksum matches its slots. The commit returns once the record and
// the slots have completed (and, with barriers, a FLUSH has made them
// durable): the install and the cleared record, the checkpoint, run on
// the mount's journal task, as jbd2 checkpoints off the committing
// thread. The next commit writes its log slots beside those of every
// transaction still being checkpointed (layout.PlaceSlots) and its record
// in whichever of the log's two record blocks its last clear has left
// free, so it waits for a checkpoint only when both are still busy. The
// policy says when the running transaction commits: as every operation
// ends (PerOp, xv6's own log, which Bento and the C-Kernel run), or once
// it has grown past a threshold or on sync (Compound, jbd2's, which ext4
// runs).
//
// No locks: one task runs at a time (see the kernel package comment).
package journal

import (
	"fmt"
	"slices"
	"time"

	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/xv6/layout"
)

// Disk is the block access the log makes through its file system.
type Disk interface {
	// CopyBlock submits a write of block from's contents to block to and
	// returns its completion and the layout.BlockSum of the contents: a
	// commit's log slot (home to log) and a recovery's install (log to
	// home). At commit the read is a cache hit: logged blocks are dirty
	// in cache, and the block in hand is summed, not read again.
	CopyBlock(t *kernel.Task, from, to uint32) (done int64, sum uint32, err error)
	// SubmitHome submits the write of cached block blk to its home
	// location and returns its completion: a commit's install.
	SubmitHome(t *kernel.Task, blk uint32) (done int64, err error)
	// ReadBlocks reads blks into the cache, issuing every read before it
	// waits, once, for the last, where the disk can issue reads side by
	// side, and sets sums[i], when sums is not nil, to the
	// layout.BlockSum of block blks[i]: recovery's reads of the record
	// blocks and of the slots it checks.
	ReadBlocks(t *kernel.Task, blks, sums []uint32) error
	// WithHeader acquires the record block blk, read from the device
	// when fill is set and zeroed when it is not, calls use with it and
	// releases it once use returns. A failed release becomes the error
	// unless use returned one.
	WithHeader(t *kernel.Task, blk uint32, fill bool, use HeaderFunc) error
	// Flush issues a device FLUSH: a barrier between a commit's steps.
	Flush(t *kernel.Task) error
	// JournalTask returns the task a commit's checkpoint runs on.
	JournalTask(t *kernel.Task) *kernel.Task
}

// A Header is a record block, held for one Disk.WithHeader call.
type Header interface {
	// WriteSync writes the block and waits for it.
	WriteSync(t *kernel.Task) error
}

// HeaderFunc uses the held record block h, whose contents are data.
type HeaderFunc func(t *kernel.Task, h Header, data []byte) error

// Policy is when the running transaction commits.
type Policy struct {
	// threshold is the block count at which the last operation to end
	// commits a compound transaction; 0 commits every operation.
	threshold int
}

// PerOp is xv6's log, Bento's and the C-Kernel's: every operation
// commits as it ends, and with barriers a FLUSH follows each of the
// commit's three points (the commit record and its slots, the install,
// the cleared record).
func PerOp() Policy { return Policy{} }

// Compound is jbd2's journal, ext4's: operations join a running
// compound transaction that commits once the last open operation ends
// with threshold blocks joined, or on sync, not per operation. With
// barriers a FLUSH follows the commit record and its slots, and the
// install: paid once per compound commit.
func Compound(threshold int) Policy {
	if threshold < 1 {
		panic(fmt.Sprintf("journal: compound threshold %d, want at least 1", threshold))
	}
	return Policy{threshold}
}

func (p Policy) compound() bool { return p.threshold > 0 }

// Log is the write-ahead log over one mount's log region.
type Log struct {
	name     string // prefixes errors and panics
	disk     Disk
	start    uint32 // record block A: log slot i is block start+1+i
	size     uint32 // log slots; one transaction must fit
	policy   Policy
	barriers bool
	// record is commitRecord as a value, made once so that a commit
	// hands it to Disk.WithHeader without allocating.
	record HeaderFunc

	outstanding int      // open operations
	reserved    uint32   // blocks reserved by the open operations
	committing  bool     // a commit is running
	blocks      []uint32 // home addresses of the running transaction's blocks
	inLog       map[uint32]bool
	dataEnd     int64    // latest completion of the running transaction's ordered data
	opDataEnd   int64    // latest completion of the open operations' ordered data
	ordered     []uint32 // blocks the running transaction's ordered data overwrote
	first       uint32   // first log slot of the commit being recorded
	sum         uint32   // checksum of the commit being recorded
	slotsEnd    int64    // latest completion of its log slots
	rec         int      // record block of the commit being recorded
	commitEnd   int64    // virtual completion of the last commit record
	records     [2]recordBlock
	commits     int64 // committed transactions: the last record's sequence number
}

// recordBlock is one of the log's two record blocks.
type recordBlock struct {
	blk uint32
	// clearEnd is the virtual completion of the block's last cleared
	// record: from then on the block is free for the next record, and
	// slots, the slots of the transaction it recorded, are free too.
	clearEnd int64
	slots    layout.SlotRange
	homes    []uint32 // the home blocks of that transaction, sorted
}

// New returns the log of the file system name over the log region sb
// describes. barriers orders commits and recovery with device FLUSHes.
func New(name string, d Disk, sb layout.Superblock, p Policy, barriers bool) *Log {
	l := &Log{
		name:     name,
		disk:     d,
		start:    sb.LogStart,
		size:     sb.LogSlots(),
		policy:   p,
		barriers: barriers,
		inLog:    make(map[uint32]bool),
	}
	for i, blk := range sb.RecordBlocks() {
		l.records[i].blk = blk
	}
	l.record = l.commitRecord
	return l
}

// Commits reports how many transactions have committed: the sequence
// number of the last commit record. An empty group commit, such as a
// Sync with nothing logged, writes no record and does not count.
func (l *Log) Commits() int64 { return l.commits }

// SetCommits carries the commit count, and so the record sequence,
// across an online upgrade.
func (l *Log) SetCommits(n int64) { l.commits = n }

// Recover replays the committed-but-uninstalled transactions after a
// crash, then clears the log. A mount calls it before serving anything.
// Both record blocks may hold a valid record, a commit's and that of the
// one before it whose checkpoint the crash cut short; they are replayed
// in sequence order, so a block both logged ends with the later
// contents. The two record blocks are read side by side, with one wait.
func (l *Log) Recover(t *kernel.Task) error {
	a, b := l.records[0].blk, l.records[1].blk
	if err := l.disk.ReadBlocks(t, []uint32{a, b}, nil); err != nil {
		return err
	}
	return l.disk.WithHeader(t, a, true, func(t *kernel.Task, ha Header, da []byte) error {
		return l.disk.WithHeader(t, b, true, func(t *kernel.Task, hb Header, db []byte) error {
			return l.replay(t, [2]Header{ha, hb}, [2][]byte{da, db})
		})
	})
}

// replay installs the committed records of the record blocks hs, whose
// contents are data, in sequence order, and clears them. A record is
// committed when it is valid and its checksum matches its slots, which
// are read, for both records, side by side with one wait; a record whose
// slots did not all reach the disk before a crash is not, and is only
// cleared. Record block A is cleared on every mount, as xv6 writes its
// log header; B only when it held a record.
func (l *Log) replay(t *kernel.Task, hs [2]Header, data [2][]byte) error {
	type record struct {
		seq, first uint32
		blocks     []uint32
	}
	var recs [2]record
	var slots []uint32
	for i, d := range data {
		r := &recs[i]
		r.seq, r.first, r.blocks = layout.DecodeCommitRecord(d, l.size)
		for j := range r.blocks {
			slots = append(slots, l.start+1+r.first+uint32(j))
		}
	}
	held := [2]bool{len(recs[0].blocks) > 0, len(recs[1].blocks) > 0}
	if len(slots) > 0 {
		sums := make([]uint32, len(slots))
		if err := l.disk.ReadBlocks(t, slots, sums); err != nil {
			return err
		}
		t.Charge(time.Duration(len(slots)) * t.Model().ChecksumPer4K)
		for i := range recs {
			var sum uint32
			for _, s := range sums[:len(recs[i].blocks)] {
				sum = layout.CommitSum(sum, s)
			}
			sums = sums[len(recs[i].blocks):]
			if sum != layout.RecordSum(data[i]) {
				recs[i].blocks = nil // torn: uncommitted
			}
		}
	}
	order := [2]int{0, 1}
	if layout.SeqBefore(recs[1].seq, recs[0].seq) {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		if len(recs[i].blocks) == 0 {
			continue
		}
		var last int64
		for j, home := range recs[i].blocks {
			done, _, err := l.disk.CopyBlock(t, l.start+1+recs[i].first+uint32(j), home)
			if err != nil {
				return err
			}
			last = max(last, done)
		}
		t.WaitIO("install", last)
		if err := l.flush(t); err != nil {
			return err
		}
	}
	for i, h := range hs {
		if i > 0 && !held[i] {
			continue
		}
		layout.EncodeCommitRecord(data[i], 0, 0, nil, 0, l.size)
		if err := h.WriteSync(t); err != nil {
			return err
		}
	}
	return l.flush(t)
}

// BeginOp opens an operation that will dirty at most n blocks. One task
// runs at a time and a commit finishes inside the call that started it,
// so an operation never begins mid-commit, and the log commits before
// its reservations could overrun it: either would be a broken contract,
// not something to wait out. What a task does wait for, in virtual
// time, is the end of a commit it slept through (a begin-stall).
func (l *Log) BeginOp(t *kernel.Task, n int) {
	if l.committing || uint32(len(l.blocks))+l.reserved+uint32(n) > l.size {
		panic(fmt.Sprintf("%s: BeginOp(%d) found the log committing=%v with %d logged + %d reserved of %d blocks: "+
			"another task is mid-transaction, which the one-runner-at-a-time contract forbids",
			l.name, n, l.committing, len(l.blocks), l.reserved, l.size))
	}
	l.outstanding++
	l.reserved += uint32(n)
	l.waitCommit(t)
}

// waitCommit waits out the last commit record, as a begin-stall span
// when t's clock is behind it.
func (l *Log) waitCommit(t *kernel.Task) {
	if r := t.Rec(); r != nil && l.commitEnd > t.Clk.NowNS() {
		r.Span(t.Name, trace.CatJournal, "begin-stall", t.Clk.NowNS(), l.commitEnd)
		r.Add(trace.CtrJournalStalls, 1)
	}
	t.Clk.AdvanceTo(l.commitEnd)
}

// Write joins block blk, which the caller has marked dirty in its cache,
// to the running transaction (xv6's log_write). The block stays dirty
// in the cache until the commit installs it.
func (l *Log) Write(t *kernel.Task, blk uint32) error {
	if l.outstanding == 0 {
		return fmt.Errorf("%s: log write outside an operation: %w", l.name, fsapi.ErrInvalid)
	}
	if l.inLog[blk] {
		// Absorption: the block is already in this transaction.
		t.Rec().Add(trace.CtrJournalAbsorbed, 1)
		return nil
	}
	if uint32(len(l.blocks)) >= l.size {
		return fmt.Errorf("%s: transaction too big: %w", l.name, fsapi.ErrNoSpace)
	}
	l.inLog[blk] = true
	l.blocks = append(l.blocks, blk)
	return nil
}

// OrderData makes a direct data write of block blk that completes at end
// ordered data of the running transaction, as jbd2's ordered mode does:
// its commit record is submitted only once the data has completed, and
// an operation that ends without committing waits for its own data as it
// ends. The data is submitted but not waited for, so it overlaps the
// rest of the operation and the commit's log slots.
func (l *Log) OrderData(blk uint32, end int64) {
	l.ordered = append(l.ordered, blk)
	l.dataEnd = max(l.dataEnd, end)
	l.opDataEnd = max(l.opDataEnd, end)
}

// EndOp closes an operation opened by BeginOp(t, n). The last one to
// close commits when the policy says the transaction is due, and returns
// after the operations' ordered data has completed, whether it committed
// or not. A failed commit becomes *err unless it already holds an error,
// so a mutation that never became durable does not report success;
// operations defer it with their named result.
func (l *Log) EndOp(t *kernel.Task, n int, err *error) {
	l.outstanding--
	l.reserved -= uint32(n)
	if l.outstanding > 0 {
		return // an enclosing operation commits
	}
	var cerr error
	if len(l.blocks) >= l.policy.threshold {
		cerr = l.commit(t)
	}
	t.WaitIO("write-batch", l.opDataEnd)
	l.opDataEnd = 0
	if *err == nil {
		*err = cerr
	}
}

// Sync makes everything logged durable (fsync, sync, unmount). Under
// PerOp every operation committed as it ended, so Sync is an empty
// operation: it waits out the last commit and commits nothing. Under
// Compound it commits what is pending: fsyncs share compound commits,
// the group commit that amortizes ext4's barriers across varmail's
// threads, as the running transaction carries every task's operations,
// so the first fsync to arrive commits them all and the others find
// nothing pending. They still wait out that commit's record, which may
// carry their operations and complete after their clocks.
func (l *Log) Sync(t *kernel.Task) (err error) {
	if !l.policy.compound() {
		l.BeginOp(t, 1)
		l.EndOp(t, 1, &err)
		return err
	}
	if len(l.blocks) == 0 {
		l.waitCommit(t)
		return nil
	}
	if l.outstanding > 0 {
		panic(l.name + ": sync with an operation open: the barrier is its own operation (one runner at a time)")
	}
	return l.commit(t)
}

// Drain syncs and waits out the last checkpoint, so the log is idle: a
// mount's last act before it unmounts or hands the disk to its
// replacement, whose first commit, knowing nothing of this log's live
// slots and record blocks, must not write the log before their cleared
// records have completed.
func (l *Log) Drain(t *kernel.Task) error {
	err := l.Sync(t)
	t.WaitJournal("checkpoint-wait", max(l.records[0].clearEnd, l.records[1].clearEnd))
	return err
}

// commit commits the running transaction, if it holds any block, and
// resets it in place: the slice capacity and map buckets carry to the
// next transaction instead of being reallocated per commit. That is safe
// because no operation begins while committing, so nothing can append
// between writeCommit consuming l.blocks and the reset.
func (l *Log) commit(t *kernel.Task) error {
	l.committing = true
	var err error
	if n := len(l.blocks); n > 0 {
		start := t.Clk.NowNS()
		err = l.writeCommit(t)
		if r := t.Rec(); r != nil {
			r.SpanAB(t.Name, trace.CatJournal, "commit", start, t.Clk.NowNS(), int64(n), 0)
			r.Add(trace.CtrJournalCommits, 1)
			r.Add(trace.CtrJournalBlocks, int64(n))
		}
	}
	l.blocks, l.ordered = l.blocks[:0], l.ordered[:0]
	clear(l.inLog)
	l.dataEnd = 0
	l.committing = false
	l.commitEnd = max(l.commitEnd, t.Clk.NowNS())
	return err
}

// writeCommit writes the running transaction to the log: it submits
// every slot, summing the blocks as it copies them, and waits only for
// the transaction's ordered data before it writes the commit record,
// into a record block whose last clear has completed. The record is
// submitted beside the slots; commitRecord waits for them after it. A
// disk with no asynchronous submission (the FUSE daemon's pwrite)
// completes each slot before submitting the next, so there the commit
// stays serial.
func (l *Log) writeCommit(t *kernel.Task) error {
	n := uint32(len(l.blocks))
	first := l.place(t, n)
	var last int64
	var sum uint32
	for i, home := range l.blocks {
		done, s, err := l.disk.CopyBlock(t, home, l.start+1+first+uint32(i))
		if err != nil {
			return err
		}
		last, sum = max(last, done), layout.CommitSum(sum, s)
	}
	t.Charge(time.Duration(n) * t.Model().ChecksumPer4K)
	t.WaitIO("ordered-data", l.dataEnd)
	l.first, l.sum, l.slotsEnd = first, sum, last
	l.rec = l.recordBlock(t)
	return l.disk.WithHeader(t, l.records[l.rec].blk, false, l.record)
}

// recordBlock returns the record block the commit record goes to: A if
// its last clear has completed by t's clock, else B if its has, else,
// after waiting for it (checkpoint-wait), the one whose clear completes
// first. Every record in B is marked by a record-b instant. A log whose
// checkpoint runs on the committing task, like the FUSE daemon's, and
// an idle one always record in A.
//
// First it waits (checkpoint-wait) for the clear of any transaction
// still live that logged a block this transaction's ordered data
// overwrote, a block freed and reused as file data: if both records
// stood at a crash, replaying the earlier one would put the block's old
// contents back over the data, which the later record does not carry.
// jbd2 writes revoke records for this.
func (l *Log) recordBlock(t *kernel.Task) int {
	for _, rb := range l.records {
		if rb.clearEnd > t.Clk.NowNS() && l.overwrites(rb.homes) {
			t.WaitJournal("checkpoint-wait", rb.clearEnd)
		}
	}
	now := t.Clk.NowNS()
	a, b := l.records[0].clearEnd, l.records[1].clearEnd
	if a <= now {
		return 0
	}
	if b > now && b >= a {
		t.WaitJournal("checkpoint-wait", a)
		return 0
	}
	t.WaitJournal("checkpoint-wait", b)
	if r := t.Rec(); r != nil {
		r.Instant(t.Name, trace.CatJournal, "record-b", t.Clk.NowNS(), l.commits+1, int64(l.first))
	}
	return 1
}

// overwrites reports whether the running transaction's ordered data
// overwrote any of homes, which is sorted.
func (l *Log) overwrites(homes []uint32) bool {
	for _, b := range l.ordered {
		if _, ok := slices.BinarySearch(homes, b); ok {
			return true
		}
	}
	return false
}

// commitRecord writes the commit record, the next in sequence, into the
// held record block, waits for the transaction's slots, then runs the
// checkpoint: the blocks home and the cleared record, with the barriers
// between. It returns once the checkpoint has been issued; its steps are
// issued in order inside the call, so their errors fail the commit, but
// on the journal task, whose clock starts at the later of the commit's
// end (its record, its slots and their barrier) and the previous
// checkpoint's end: checkpoints run one at a time, in commit order. The
// record block is acquired once and written twice.
func (l *Log) commitRecord(t *kernel.Task, h Header, data []byte) error {
	seq := l.commits + 1
	layout.EncodeCommitRecord(data, uint32(seq), l.first, l.blocks, l.sum, l.size)
	if err := h.WriteSync(t); err != nil {
		return err
	}
	t.WaitIO("journal-write", l.slotsEnd)
	l.commits = seq
	rb := &l.records[l.rec]
	rb.slots = layout.SlotRange{First: l.first, N: uint32(len(l.blocks))}
	rb.homes = append(rb.homes[:0], l.blocks...)
	slices.Sort(rb.homes)
	if err := l.flush(t); err != nil {
		return err
	}
	jt := l.disk.JournalTask(t)
	jt.Clk.AdvanceTo(t.Clk.NowNS())
	defer func() { rb.clearEnd = jt.Clk.NowNS() }()
	var last int64
	for _, home := range l.blocks {
		done, err := l.disk.SubmitHome(jt, home)
		if err != nil {
			return err
		}
		last = max(last, done)
	}
	jt.WaitIO("install", last)
	if err := l.flush(jt); err != nil {
		return err
	}
	layout.EncodeCommitRecord(data, 0, 0, nil, 0, l.size)
	if err := h.WriteSync(jt); err != nil {
		return err
	}
	if l.policy.compound() {
		return nil // jbd2 issues no barrier after the cleared record
	}
	return l.flush(jt)
}

// place returns the first log slot of a transaction of n blocks. With no
// checkpoint running at t's clock that is slot 0. Otherwise the
// transaction goes beside the slots of the transactions whose clears
// have not completed, at most one per record block (a log-beside
// instant), as jbd2's circular log takes new commits while older
// transactions checkpoint; only when it fits nowhere does the commit
// wait out the earlier clear and place again.
func (l *Log) place(t *kernel.Task, n uint32) uint32 {
	for {
		now := t.Clk.NowNS()
		var buf [len(l.records)]layout.SlotRange
		live, next := buf[:0], int64(0)
		for _, rb := range l.records {
			if rb.clearEnd > now {
				live = append(live, rb.slots)
				if next == 0 || rb.clearEnd < next {
					next = rb.clearEnd
				}
			}
		}
		if len(live) == 0 {
			return 0
		}
		if first, ok := layout.PlaceSlots(n, live, l.size); ok {
			if r := t.Rec(); r != nil {
				r.Instant(t.Name, trace.CatJournal, "log-beside", now, int64(first), int64(n))
			}
			return first
		}
		t.WaitJournal("checkpoint-wait", next)
	}
}

// flush issues a barrier when the log runs with them.
func (l *Log) flush(t *kernel.Task) error {
	if !l.barriers {
		return nil
	}
	return l.disk.Flush(t)
}
