// Package journaltest holds what the tests of the xv6 journals share —
// Bento's (bentoimpl) and the C-Kernel's and ext4's (vfsimpl): a traced
// mount whose device records every write command, and the checks every
// journal must pass. A commit writes its log slots as one batch and
// submits its commit record beside them, once the ordered data it
// carries has completed, without waiting for the slots; it returns once
// its record and its slots have completed and checkpoints (installs,
// then clears the record) in the background, one checkpoint at a time;
// the next
// commit may write its log slots while checkpoints run, but never over
// the slots of a transaction whose clear has not completed, and writes
// its own record into one of the log's two record blocks only once that
// block's last clear has completed; a record placed beside a running
// checkpoint recovers from its own slots, two valid records recover in
// sequence order, and a freed block reused as file data keeps that data;
// a commit whose log write fails leaves no trace on the device; and with
// the data bypass on, file data is ordered data — a commit record
// follows the data its transaction carries, and a write that commits
// nothing returns after its data.
package journaltest

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// writeCmd is one device write command: its block, when it was
// submitted and completes, in virtual nanoseconds, its place among the
// device's write-class commands, the count blockdev.ArmPowerCut takes,
// and, on a rig that keeps them, the contents it wrote.
type writeCmd struct {
	blk      int
	at, done int64
	cmd      int64
	data     []byte
}

// recorder is a blockdev.Backend that records every write command it
// books, by copy, by reference or joined to the command before it, in
// submission order, with a copy of its contents when keep is set. From
// block slowFrom on, a write completes slow nanoseconds later than the
// backend says (see Rig.SlowData).
type recorder struct {
	blockdev.Backend
	dev      *blockdev.Device
	writes   []writeCmd
	keep     bool
	slowFrom int
	slow     int64
}

// record notes a write of buf to blk submitted at now that the backend
// completes at done, and returns its completion. The device counts the
// command once the backend has booked it.
func (r *recorder) record(now int64, blk int, buf []byte, done int64) int64 {
	if r.slow > 0 && blk >= r.slowFrom {
		done += r.slow
	}
	w := writeCmd{blk: blk, at: now, done: done, cmd: r.dev.WriteCmds() + 1}
	if r.keep {
		w.data = bytes.Clone(buf)
	}
	r.writes = append(r.writes, w)
	return done
}

func (r *recorder) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitBlock(now, blk, buf)
	return r.record(now, blk, buf, done), err
}

func (r *recorder) SubmitOwned(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitOwned(now, blk, buf)
	return r.record(now, blk, buf, done), err
}

func (r *recorder) JoinWrite(prev, now int64, blk int, buf []byte, owned bool) (int64, bool) {
	done, ok := r.Backend.JoinWrite(prev, now, blk, buf, owned)
	if ok {
		done = r.record(now, blk, buf, done)
	}
	return done, ok
}

// Rig is a traced mount on a 4 096-block local device that records its
// write commands. The mounting task starts past mkfs's device work, so
// a commit queues behind nothing but itself.
type Rig struct {
	Model *costmodel.Model
	K     *kernel.Kernel
	M     *kernel.Mount
	Task  *kernel.Task
	Dev   *blockdev.Device
	SB    layout.Superblock
	rec   *recorder

	mkfs     func(*kernel.Task, *blockdev.Device) error
	name     string
	register func(*kernel.Kernel) error
}

// New formats the device with mkfs, registers a file system type with
// register, and mounts the type named name at /mnt.
func New(t testing.TB, model *costmodel.Model, mkfs func(*kernel.Task, *blockdev.Device) error,
	name string, register func(*kernel.Kernel) error) *Rig {
	t.Helper()
	return newRig(t, model, mkfs, name, register, false)
}

// newRig is New, keeping a copy of every write's contents when keep is
// set.
func newRig(t testing.TB, model *costmodel.Model, mkfs func(*kernel.Task, *blockdev.Device) error,
	name string, register func(*kernel.Kernel) error, keep bool) *Rig {
	t.Helper()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	rec := &recorder{Backend: blockdev.NewLocalBackend("rig", layout.BlockSize, model), keep: keep}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model, Backend: rec})
	rec.dev = dev
	format := k.NewTask("mkfs")
	if err := mkfs(format, dev); err != nil {
		t.Fatal(err)
	}
	sb, err := layout.ReadSuperblock(format.Clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := register(k); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	task.Clk.AdvanceTo(format.Clk.NowNS() + int64(time.Millisecond))
	m, err := k.Mount(task, name, "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return &Rig{Model: model, K: k, M: m, Task: task, Dev: dev, SB: sb, rec: rec,
		mkfs: mkfs, name: name, register: register}
}

// Mkfs formats an xv6 image with 512 inodes.
func Mkfs(t *kernel.Task, dev *blockdev.Device) error {
	_, err := layout.Mkfs(t.Clk, dev, 512)
	return err
}

// WriteFile writes pages journaled pages to /f and syncs, returning the
// errors of the write and of the sync.
func (r *Rig) WriteFile(pages int) (werr, serr error) {
	werr = r.M.WriteFile(r.Task, "/f", make([]byte, pages*layout.BlockSize))
	return werr, r.M.Sync(r.Task)
}

// WriteBack creates path empty and writes pages pages of file data to it
// on task as the kernel's write-back does, straight through the mounted
// file system: one ->writepages call when it has one, one ->writepage per
// page otherwise.
func (r *Rig) WriteBack(task *kernel.Task, path string, pages int) error {
	f, err := r.M.Open(task, path, fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		return err
	}
	ino := f.Ino()
	if err := r.M.Close(task, f); err != nil {
		return err
	}
	size := int64(pages) * layout.BlockSize
	buf := make([][]byte, pages)
	for i := range buf {
		buf[i] = bytes.Repeat([]byte{byte(i + 1)}, layout.BlockSize)
	}
	fs := r.M.FS()
	if bw, ok := fs.(kernel.BatchWriter); ok {
		return bw.WritePages(task, ino, 0, buf, size)
	}
	for i, p := range buf {
		if err := fs.WritePage(task, ino, int64(i), p, size); err != nil {
			return err
		}
	}
	return nil
}

// Commits returns the traced commit spans of at least minBlocks blocks.
func (r *Rig) Commits(minBlocks int64) []trace.Event {
	var out []trace.Event
	for _, e := range r.K.Recorder().Events() {
		if e.Kind == trace.KindSpan && e.Name == "commit" && e.A >= minBlocks {
			out = append(out, e)
		}
	}
	return out
}

// LastSlot makes the directory /d and syncs on a fault-free rig, and
// returns the log block of the last slot of the first transaction of at
// least three blocks, which no earlier commit wrote. So on a rig that
// replays the same operations a fault at this block fails that
// transaction's last slot, with the slots before it already submitted.
// (A small commit placed beside a running checkpoint may write the slot
// a later transaction ends at, which is why the operation is one mkdir.)
func (r *Rig) LastSlot(t testing.TB) int {
	t.Helper()
	if err := r.Mkdirs("/d"); err != nil {
		t.Fatal(err)
	}
	ios := r.commitIOs()
	i := slices.IndexFunc(ios, func(c commitIO) bool { return len(c.slots) >= 3 })
	if i < 0 {
		t.Fatal("making /d committed no transaction of three or more blocks")
	}
	last := ios[i].slots[len(ios[i].slots)-1].blk
	for _, c := range ios[:i] {
		if slices.ContainsFunc(c.slots, func(w writeCmd) bool { return w.blk == last }) {
			t.Fatalf("log block %d, the last slot of the first transaction of three or more blocks, was written by an earlier commit", last)
		}
	}
	return last
}

// commitIO is one commit's write commands in submission order: the
// unjournaled data written before it, its log slots, its commit record,
// its installs and its cleared record.
type commitIO struct {
	data     []writeCmd
	slots    []writeCmd
	record   writeCmd
	installs []writeCmd
	clear    writeCmd
}

// commitIOs splits the recorded writes into commits. A commit's record
// is the first write to either record block after its slots, and its
// clear the next write to that block. A record-block write with no log
// slot before it is a mount's recovery clearing the log, and a write
// outside the log before a commit record is unjournaled data, which the
// commit's transaction carries. A commit whose record or clear was never
// written is left out.
func (r *Rig) commitIOs() []commitIO {
	ios, _ := r.commitIOsFrom(0)
	return ios
}

// commitIOsFrom is commitIOs over the writes from the from-th on, which
// must not fall inside a commit. It also returns the data written after
// the last commit, which no commit carries yet.
func (r *Rig) commitIOsFrom(from int) (ios []commitIO, pending []writeCmd) {
	var c commitIO
	recorded := false
	for _, w := range r.rec.writes[from:] {
		switch {
		case recorded && w.blk == c.record.blk:
			c.clear = w
			ios = append(ios, c)
			c, recorded = commitIO{}, false
		case recorded:
			c.installs = append(c.installs, w)
		case r.isRecord(w.blk) && len(c.slots) > 0:
			c.record, recorded = w, true
		case r.isSlot(w.blk):
			c.slots = append(c.slots, w)
		case !r.isRecord(w.blk):
			c.data = append(c.data, w)
		}
	}
	return ios, c.data
}

// isRecord reports whether blk is one of the log's two record blocks.
func (r *Rig) isRecord(blk int) bool {
	rb := r.SB.RecordBlocks()
	return blk == int(rb[0]) || blk == int(rb[1])
}

// isSlot reports whether blk is one of the log's slots.
func (r *Rig) isSlot(blk int) bool {
	return blk > int(r.SB.LogStart) && blk <= int(r.SB.LogStart+r.SB.LogSlots())
}

// latest is the last completion of cmds.
func latest(cmds []writeCmd) int64 {
	var done int64
	for _, w := range cmds {
		done = max(done, w.done)
	}
	return done
}

// RequireBatchedLog checks the rig's commits so far, on a disk that
// submits asynchronously. Each commit of four or more blocks must take
// less than N+2 device writes from start to end (log, commit record,
// install, cleared record), where one synchronous write per log slot
// takes N+3, and its slots must all be submitted before the first of
// them completes. Every commit must return no earlier than its record
// and its slots have completed, and some commit record must be
// submitted before its last slot completes: the record goes out beside
// the slots, not after them.
func (r *Rig) RequireBatchedLog(t testing.TB) {
	t.Helper()
	big := r.Commits(4)
	if len(big) == 0 {
		t.Fatal("no commit of four or more blocks traced")
	}
	for _, c := range big {
		if limit := (c.A + 2) * int64(r.Model.DevWrite(layout.BlockSize)); c.Dur >= limit {
			t.Errorf("commit of %d blocks took %d ns, want under %d ns (%d device writes)", c.A, c.Dur, limit, c.A+2)
		}
	}
	spans, ios := r.tracedCommits(t)
	beside := 0
	for i, c := range ios {
		slotsDone := latest(c.slots)
		if end := spans[i].Start + spans[i].Dur; end < max(slotsDone, c.record.done) {
			t.Errorf("commit %d returned at %d ns, before its record (%d ns) and its last log slot (%d ns) completed",
				i, end, c.record.done, slotsDone)
		}
		if c.record.at < slotsDone {
			beside++
		}
		if n := len(c.slots); n >= 4 && c.slots[n-1].at >= c.slots[0].done {
			t.Errorf("log slot %d of %d submitted at %d ns, after slot 1 completed at %d ns: the slots were written one at a time",
				n, n, c.slots[n-1].at, c.slots[0].done)
		}
	}
	if beside == 0 {
		t.Errorf("each of %d commit records was submitted after its last log slot completed", len(ios))
	}
}

// tracedCommits pairs each traced commit span with the commit's write
// commands; the i-th span is the i-th commit written.
func (r *Rig) tracedCommits(t testing.TB) ([]trace.Event, []commitIO) {
	t.Helper()
	spans, ios := r.Commits(1), r.commitIOs()
	if len(ios) == 0 {
		t.Fatal("no commit written")
	}
	if len(spans) != len(ios) {
		t.Fatalf("%d commit spans traced for %d commits written", len(spans), len(ios))
	}
	return spans, ios
}

// RequireCheckpointOrder checks that every commit so far checkpointed
// in the background, in order, and kept the log crash-safe while it did.
// The committing operation returns once its commit record and its log
// slots have completed, before its installs have. Its installs are
// submitted no earlier than the record's and the slots' completion, nor
// than the previous commit's clear's completion: one checkpoint runs at a time, in commit order. Its
// cleared record is submitted no earlier than the last install's
// completion. A commit submits its record to a record block no earlier
// than the completion of the clear the last commit recorded there
// wrote: each block holds one record at a time. Its log slots may be
// written while checkpoints run, but a slot submitted before an earlier
// commit's clear completed is never one of that commit's slots, which a
// crash until then still replays.
func (r *Rig) RequireCheckpointOrder(t testing.TB) {
	t.Helper()
	spans, ios := r.tracedCommits(t)
	for i, c := range ios {
		end, installed := spans[i].Start+spans[i].Dur, latest(c.installs)
		logged := max(c.record.done, latest(c.slots))
		if end < logged || end >= installed {
			t.Errorf("commit %d returned at %d ns, want at or after its record and slots completed (%d ns) and before its install did (%d ns)",
				i, end, logged, installed)
		}
		for _, w := range c.installs {
			if w.at < logged {
				t.Errorf("commit %d installed block %d at %d ns, before its record and slots completed at %d ns", i, w.blk, w.at, logged)
			}
			if i > 0 && w.at < ios[i-1].clear.done {
				t.Errorf("commit %d installed block %d at %d ns, before commit %d's clear completed at %d ns",
					i, w.blk, w.at, i-1, ios[i-1].clear.done)
			}
		}
		if c.clear.at < installed {
			t.Errorf("commit %d cleared its record at %d ns, before its install completed at %d ns", i, c.clear.at, installed)
		}
		for j := i - 1; j >= 0; j-- {
			if prev := ios[j]; prev.record.blk == c.record.blk {
				if c.record.at < prev.clear.done {
					t.Errorf("commit %d submitted its record to block %d at %d ns, before commit %d's clear there completed at %d ns",
						i, c.record.blk, c.record.at, j, prev.clear.done)
				}
				break
			}
		}
		for j, prev := range ios[:i] {
			for _, w := range c.slots {
				if w.at < prev.clear.done && slices.ContainsFunc(prev.slots, func(s writeCmd) bool { return s.blk == w.blk }) {
					t.Errorf("commit %d wrote log block %d at %d ns, a slot of commit %d, whose clear completed only at %d ns",
						i, w.blk, w.at, j, prev.clear.done)
				}
			}
		}
	}
}

// RequireLogOverlap requires some commit so far to have written a log
// slot while the previous commit's checkpoint was still running: before
// that commit's clear completed. Each such commit must also be marked by
// a log-beside instant, and each commit recorded in record block B by a
// record-b instant.
func (r *Rig) RequireLogOverlap(t testing.TB) {
	t.Helper()
	ios := r.commitIOs()
	overlaps, inB := 0, 0
	for i := 1; i < len(ios); i++ {
		if ios[i].slots[0].at < ios[i-1].clear.done {
			overlaps++
		}
	}
	for _, c := range ios {
		if c.record.blk == int(r.SB.RecordBlocks()[1]) {
			inB++
		}
	}
	if overlaps == 0 {
		t.Fatalf("none of %d commits wrote a log slot while the previous checkpoint ran", len(ios))
	}
	beside, recordB := 0, 0
	for _, e := range r.K.Recorder().Events() {
		switch {
		case e.Kind != trace.KindInstant:
		case e.Name == "log-beside":
			beside++
		case e.Name == "record-b":
			recordB++
		}
	}
	if beside < overlaps {
		t.Errorf("%d commits wrote log slots while the previous checkpoint ran, but %d log-beside instants were traced", overlaps, beside)
	}
	if recordB != inB {
		t.Errorf("%d commits recorded in record block B, but %d record-b instants were traced", inB, recordB)
	}
}

// RequireCheckpointWait requires some commit so far to have waited out
// a checkpoint, as a checkpoint-wait span: both record blocks were still
// busy when its record was due, or the log had no room beside the live
// slots.
func (r *Rig) RequireCheckpointWait(t testing.TB) {
	t.Helper()
	if !slices.ContainsFunc(r.K.Recorder().Events(), func(e trace.Event) bool {
		return e.Kind == trace.KindSpan && e.Name == "checkpoint-wait"
	}) {
		t.Fatal("no commit waited out a checkpoint")
	}
}

// RequireCheckpointInCommit checks that every commit so far returned
// only once its cleared record had completed: a journal whose disk has
// no asynchronous submission checkpoints on the committing task.
func (r *Rig) RequireCheckpointInCommit(t testing.TB) {
	t.Helper()
	spans, ios := r.tracedCommits(t)
	for i, c := range ios {
		if end := spans[i].Start + spans[i].Dur; end < c.clear.done {
			t.Errorf("commit %d returned at %d ns, before its clear completed at %d ns", i, end, c.clear.done)
		}
	}
}

// RequireUnmountDrains unmounts the rig and requires the unmount to
// return no earlier than the last clear's completion: a torn-down
// instance leaves no checkpoint running.
func (r *Rig) RequireUnmountDrains(t testing.TB) {
	t.Helper()
	ios := r.commitIOs()
	if len(ios) == 0 {
		t.Fatal("no commit written")
	}
	if err := r.K.Unmount(r.Task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	if now, cleared := r.Task.Clk.NowNS(), ios[len(ios)-1].clear.done; now < cleared {
		t.Errorf("Unmount returned at %d ns, before the last clear completed at %d ns", now, cleared)
	}
}

// Mkdirs makes each directory and syncs after it: every sync commits,
// the per-operation logs' and the compound one alike, and the next
// directory's commit follows while that commit's checkpoint runs.
func (r *Rig) Mkdirs(names ...string) error {
	for _, name := range names {
		if err := r.M.Mkdir(r.Task, name); err != nil {
			return err
		}
		if err := r.M.Sync(r.Task); err != nil {
			return err
		}
	}
	return nil
}

// RequireBesideRecovery makes and syncs four directories and finds the
// first commit that wrote its log slots from past slot 0, beside the
// previous commit's running checkpoint. It replays the same operations
// on a new rig with the power cut right after that commit's record,
// keeps every write the
// device had taken, and mounts the image again: recovery must install
// exactly that transaction's blocks, in the record's order and each with
// the contents of its log slot, and leave an image that checks clean.
func (r *Rig) RequireBesideRecovery(t testing.TB) {
	t.Helper()
	dirs := []string{"/a", "/b", "/c", "/d"}
	if err := r.Mkdirs(dirs...); err != nil {
		t.Fatal(err)
	}
	ios := r.commitIOs()
	var beside *commitIO
	for i := 1; i < len(ios) && beside == nil; i++ {
		if c := &ios[i]; c.slots[0].blk > int(r.SB.LogStart)+1 && c.slots[0].at < ios[i-1].clear.done {
			beside = c
		}
	}
	if beside == nil {
		t.Fatalf("none of %d commits wrote its log slots past slot 0 while the previous checkpoint ran", len(ios))
	}
	first := uint32(beside.slots[0].blk) - r.SB.LogStart - 1

	cut := New(t, r.Model, r.mkfs, r.name, r.register)
	cut.Dev.ArmPowerCut(beside.record.cmd - cut.Dev.WriteCmds())
	_ = cut.Mkdirs(dirs...) // fails from the first command after the record
	if !cut.Dev.PowerOut() {
		t.Fatal("the replay never reached the power cut")
	}
	cut.Dev.DisarmPowerCut()
	cut.Dev.Crash(1, 0)

	clk := vclock.NewClock()
	read := func(blk uint32) []byte {
		buf := make([]byte, layout.BlockSize)
		if err := cut.Dev.Read(clk, int(blk), buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	_, got, homes := layout.DecodeCommitRecord(read(uint32(beside.record.blk)), cut.SB.LogSlots())
	if got != first || len(homes) != len(beside.slots) {
		t.Fatalf("the record on the device names %d blocks from slot %d, want the commit's %d from slot %d",
			len(homes), got, len(beside.slots), first)
	}
	logged := make([][]byte, len(homes))
	for i := range homes {
		logged[i] = read(cut.SB.LogStart + 1 + first + uint32(i))
	}

	from := len(cut.rec.writes)
	k := kernel.New(r.Model)
	if err := cut.register(k); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mount(k.NewTask("remount"), cut.name, "/mnt", cut.Dev); err != nil {
		t.Fatal(err)
	}
	var installed []uint32
	for _, w := range cut.rec.writes[from:] {
		if cut.isRecord(w.blk) {
			break
		}
		installed = append(installed, uint32(w.blk))
	}
	if !slices.Equal(installed, homes) {
		t.Errorf("recovery installed blocks %v, want the record's %v", installed, homes)
	}
	for i, home := range homes {
		if !bytes.Equal(read(home), logged[i]) {
			t.Errorf("block %d does not hold the contents of its log slot %d after recovery", home, first+uint32(i))
		}
	}
	rep, err := layout.Fsck(clk, cut.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after recovering a record placed beside a checkpoint: %v", rep.Errors)
	}
}

// RequireTwoRecordRecovery makes and syncs directories on a rig that
// keeps every write's contents, and finds a commit recorded in record
// block A while the previous commit's record, in block B, was still
// valid: its record was submitted before that commit's clear completed.
// It builds the image a power cut leaves right after the later record
// was submitted, with the device's write cache keeping that record and
// losing the earlier commit's clear, both then in flight: every write
// submitted by then but that clear. Both records must be valid on that
// image, the later one the next in sequence; recovery must leave a block
// both transactions logged with the later transaction's contents,
// whatever block order says; and the image must check clean.
func (r *Rig) RequireTwoRecordRecovery(t testing.TB) {
	t.Helper()
	src := newRig(t, r.Model, r.mkfs, r.name, r.register, true)
	if err := src.Mkdirs("/a", "/b", "/c", "/d", "/e", "/f"); err != nil {
		t.Fatal(err)
	}
	sb, rb := src.SB, src.SB.RecordBlocks()
	ios := src.commitIOs()
	k := 0
	for i := 1; i < len(ios) && k == 0; i++ {
		if prev := ios[i-1]; ios[i].record.blk == int(rb[0]) && prev.record.blk == int(rb[1]) && ios[i].record.at < prev.clear.done {
			k = i
		}
	}
	if k == 0 {
		t.Fatalf("none of %d commits recorded in block A while the previous commit's record in block B was valid", len(ios))
	}
	dev := src.cutImage(t, ios, k)
	clk := vclock.NewClock()
	read := func(blk uint32) []byte {
		buf := make([]byte, layout.BlockSize)
		if err := dev.Read(clk, int(blk), buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	prevSeq, prevFirst, prevHomes := layout.DecodeCommitRecord(read(rb[1]), sb.LogSlots())
	seq, first, homes := layout.DecodeCommitRecord(read(rb[0]), sb.LogSlots())
	if len(prevHomes) != len(ios[k-1].slots) || len(homes) != len(ios[k].slots) || seq != prevSeq+1 {
		t.Fatalf("at the cut, block B holds record %d of %d blocks and block A record %d of %d blocks; want the commits' %d and %d blocks, A's the next in sequence",
			prevSeq, len(prevHomes), seq, len(homes), len(ios[k-1].slots), len(ios[k].slots))
	}
	var shared uint32
	var want []byte
	for i, home := range homes {
		j := slices.Index(prevHomes, home)
		if j < 0 {
			continue
		}
		later, earlier := read(sb.LogStart+1+first+uint32(i)), read(sb.LogStart+1+prevFirst+uint32(j))
		if !bytes.Equal(later, earlier) {
			shared, want = home, later
			break
		}
	}
	if want == nil {
		t.Fatal("no block is logged by both transactions with different contents")
	}

	r.remount(t, dev)
	if !bytes.Equal(read(shared), want) {
		t.Errorf("block %d, logged by records %d and %d, does not hold record %d's contents after recovery", shared, prevSeq, seq, seq)
	}
	requireClean(t, dev, "recovering two records")
}

// RequireFreedBlockRecovery runs two transactions on a compound log with
// the data bypass on, each committed by a sync. The first logs a new
// directory's block and frees it again (mkdir /d, create /d/f, mkdir
// /p, unlink /d/f, rmdir /d). The second reuses the block as ordered
// file data (a page written to /g), which it does not log. It cuts the
// power right after the second commit's record was submitted, with the
// write cache losing the first commit's clear if that was still in
// flight, and mounts the image: /g must hold its page. A log that let
// both records stand would replay the first over the reused block and
// hand /g the directory's old entries.
func (r *Rig) RequireFreedBlockRecovery(t testing.TB) {
	t.Helper()
	src := newRig(t, r.Model, r.mkfs, r.name, r.register, true)
	m, task := src.M, src.Task
	page := bytes.Repeat([]byte{'g'}, layout.BlockSize)
	// Data-region writes past the root's block and /d's complete a
	// millisecond late, so the first commit's checkpoint, which installs
	// /p's block, still runs when the second commit records.
	src.rec.slowFrom, src.rec.slow = int(src.SB.DataStart)+2, int64(time.Millisecond)
	err := m.Mkdir(task, "/d")
	if err == nil {
		err = m.WriteFile(task, "/d/f", nil)
	}
	if err == nil {
		err = m.Mkdir(task, "/p")
	}
	if err == nil {
		err = m.Unlink(task, "/d/f")
	}
	if err == nil {
		err = m.Rmdir(task, "/d")
	}
	if err == nil {
		err = m.Sync(task)
	}
	if err == nil {
		err = m.WriteFile(task, "/g", page)
	}
	if err == nil {
		err = m.Sync(task)
	}
	if err != nil {
		t.Fatal(err)
	}
	ios := src.commitIOs()
	k := len(ios) - 1
	if k < 1 || !slices.ContainsFunc(ios[k].data, func(w writeCmd) bool {
		return slices.ContainsFunc(ios[k-1].installs, func(i writeCmd) bool { return i.blk == w.blk })
	}) {
		t.Fatal("the last commit's data reuses no block the commit before it logged")
	}
	dev := src.cutImage(t, ios, k)
	m, task = r.remount(t, dev)
	got, err := m.ReadFile(task, "/g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Errorf("/g reads %q... after recovery, want its page of %q", got[:min(len(got), 8)], page[:8])
	}
	requireClean(t, dev, "recovering a reused block")
}

// cutImage builds, from the writes of r, a rig that keeps their
// contents, the image a power cut leaves right after commit k's record
// was submitted, with the device's write cache keeping that record and
// losing commit k−1's clear if it was still in flight: every write
// submitted by then but that clear.
func (r *Rig) cutImage(t testing.TB, ios []commitIO, k int) *blockdev.Device {
	t.Helper()
	cutAt, lost := ios[k].record.at, int64(-1)
	if k > 0 && ios[k-1].clear.done > cutAt {
		lost = ios[k-1].clear.cmd
	}
	dev := blockdev.MustNew(blockdev.Config{Blocks: r.Dev.Blocks(), Model: r.Model})
	clk := vclock.NewClock()
	for _, w := range r.rec.writes {
		if w.at <= cutAt && w.cmd != lost {
			if err := dev.Write(clk, w.blk, w.data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dev
}

// remount mounts dev at /mnt on a new kernel with r's file-system type
// and returns the mount and the task that mounted it.
func (r *Rig) remount(t testing.TB, dev *blockdev.Device) (*kernel.Mount, *kernel.Task) {
	t.Helper()
	k := kernel.New(r.Model)
	if err := r.register(k); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("remount")
	m, err := k.Mount(task, r.name, "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return m, task
}

// requireClean requires dev's image to check clean after what.
func requireClean(t testing.TB, dev *blockdev.Device, what string) {
	t.Helper()
	rep, err := layout.Fsck(vclock.NewClock(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after %s: %v", what, rep.Errors)
	}
}

// SlowData makes every write of a data-region block complete d later
// than the device says, as a device that reorders would: queue order then
// no longer keeps a transaction's data ahead of its log slots, and only
// the commit's own wait keeps it ahead of the commit record.
func (r *Rig) SlowData(d time.Duration) {
	r.rec.slowFrom, r.rec.slow = int(r.SB.DataStart), int64(d)
}

// RequireOrderedData runs write on the rig's task and checks the ordered
// data rule on the device writes it made. Every data write a commit
// carries — written outside the log before the commit record — completes
// no later than that record is submitted, and write returns on the rig's
// task no earlier than the latest completion of the data it wrote,
// whether a commit carried that data or none has yet. write may commit on
// another task; it must write some data, and it must not return inside a
// commit.
func (r *Rig) RequireOrderedData(t testing.TB, write func(*kernel.Task) error) {
	t.Helper()
	from := len(r.rec.writes)
	if err := write(r.Task); err != nil {
		t.Fatal(err)
	}
	ios, data := r.commitIOsFrom(from)
	for i, c := range ios {
		if done := latest(c.data); done > c.record.at {
			t.Errorf("commit %d submitted its record at %d ns, before its data completed at %d ns", i, c.record.at, done)
		}
		data = append(data, c.data...)
	}
	if len(data) == 0 {
		t.Fatal("write wrote no data")
	}
	if now, done := r.Task.Clk.NowNS(), latest(data); now < done {
		t.Errorf("write returned at %d ns, before its data completed at %d ns", now, done)
	}
}

// RequireUncommitted requires a transaction whose log write failed to
// have left no trace on the device: neither record block holds a
// record, and the image checks clean as the failure left it.
func (r *Rig) RequireUncommitted(t testing.TB) {
	t.Helper()
	clk := vclock.NewClock()
	buf := make([]byte, layout.BlockSize)
	for _, rb := range r.SB.RecordBlocks() {
		if err := r.Dev.Read(clk, int(rb), buf); err != nil {
			t.Fatal(err)
		}
		if _, _, blocks := layout.DecodeCommitRecord(buf, r.SB.LogSlots()); len(blocks) != 0 {
			t.Fatalf("record block %d holds %d blocks after a failed log write; the transaction must not commit", rb, len(blocks))
		}
	}
	rep, err := layout.Fsck(clk, r.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after a failed log write: %v", rep.Errors)
	}
}
