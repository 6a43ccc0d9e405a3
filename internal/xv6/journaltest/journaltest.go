// Package journaltest holds what the tests of the xv6 journals share —
// Bento's (bentoimpl) and the C-Kernel's and ext4's (vfsimpl): a traced
// mount whose device records every write command, and the checks every
// journal must pass. A commit writes its log slots as one batch and
// submits its commit record only after the last slot completes; it
// returns at its commit record and checkpoints (installs, then clears
// the record) in the background, and the next commit reuses the log
// only once the clear has completed; a commit whose log write fails
// leaves no trace on the device; and with the data bypass on, file data
// is ordered data — a commit record follows the data its transaction
// carries, and a write that commits nothing returns after its data.
package journaltest

import (
	"bytes"
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

// writeCmd is one device write command: its block, and when it was
// submitted and completes, in virtual nanoseconds.
type writeCmd struct {
	blk      int
	at, done int64
}

// recorder is a blockdev.Backend that records every write command it
// books, by copy, by reference or joined to the command before it, in
// submission order. From block slowFrom on, a write completes slow
// nanoseconds later than the backend says (see Rig.SlowData).
type recorder struct {
	blockdev.Backend
	writes   []writeCmd
	slowFrom int
	slow     int64
}

// record notes a write of blk submitted at now that the backend completes
// at done, and returns its completion.
func (r *recorder) record(now int64, blk int, done int64) int64 {
	if r.slow > 0 && blk >= r.slowFrom {
		done += r.slow
	}
	r.writes = append(r.writes, writeCmd{blk, now, done})
	return done
}

func (r *recorder) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitBlock(now, blk, buf)
	return r.record(now, blk, done), err
}

func (r *recorder) SubmitOwned(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitOwned(now, blk, buf)
	return r.record(now, blk, done), err
}

func (r *recorder) JoinWrite(prev, now int64, blk int, buf []byte, owned bool) (int64, bool) {
	done, ok := r.Backend.JoinWrite(prev, now, blk, buf, owned)
	if ok {
		done = r.record(now, blk, done)
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
}

// New formats the device with mkfs, registers a file system type with
// register, and mounts the type named name at /mnt.
func New(t testing.TB, model *costmodel.Model, mkfs func(*kernel.Task, *blockdev.Device) error,
	name string, register func(*kernel.Kernel) error) *Rig {
	t.Helper()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	rec := &recorder{Backend: blockdev.NewLocalBackend("rig", layout.BlockSize, model)}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model, Backend: rec})
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
	return &Rig{Model: model, K: k, M: m, Task: task, Dev: dev, SB: sb, rec: rec}
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

// LastSlot writes one page to /f on a fault-free rig and returns the log
// block of the last slot of the first transaction of at least three
// blocks. Earlier transactions are smaller, so on a rig that replays the
// same operations a fault at this block fails that transaction's last
// slot, with the slots before it already submitted.
func (r *Rig) LastSlot(t testing.TB) int {
	t.Helper()
	if werr, serr := r.WriteFile(1); werr != nil || serr != nil {
		t.Fatal(werr, serr)
	}
	big := r.Commits(3)
	if len(big) == 0 {
		t.Fatal("writing /f committed no transaction of three or more blocks")
	}
	return int(r.SB.LogStart) + int(big[0].A)
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

// commitIOs splits the recorded writes into commits. A header write with
// no log slot before it is a mount's recovery clearing the log, and a
// write outside the log before a commit record is unjournaled data, which
// the commit's transaction carries. A commit whose record or clear was
// never written is left out.
func (r *Rig) commitIOs() []commitIO {
	ios, _ := r.commitIOsFrom(0)
	return ios
}

// commitIOsFrom is commitIOs over the writes from the from-th on, which
// must not fall inside a commit. It also returns the data written after
// the last commit, which no commit carries yet.
func (r *Rig) commitIOsFrom(from int) (ios []commitIO, pending []writeCmd) {
	logStart := int(r.SB.LogStart)
	var c commitIO
	recorded := false
	for _, w := range r.rec.writes[from:] {
		switch {
		case recorded && w.blk == logStart:
			c.clear = w
			ios = append(ios, c)
			c, recorded = commitIO{}, false
		case recorded:
			c.installs = append(c.installs, w)
		case w.blk == logStart && len(c.slots) > 0:
			c.record, recorded = w, true
		case w.blk > logStart && w.blk <= logStart+int(r.SB.NLog):
			c.slots = append(c.slots, w)
		case w.blk != logStart:
			c.data = append(c.data, w)
		}
	}
	return ios, c.data
}

// latest is the last completion of cmds.
func latest(cmds []writeCmd) int64 {
	var done int64
	for _, w := range cmds {
		done = max(done, w.done)
	}
	return done
}

// RequireBatchedLog checks the rig's commits so far. Each commit of four
// or more blocks must take less than N+2 device writes from start to end
// (log, commit record, install, cleared record), where one synchronous
// write per log slot takes N+3, and its slots must all be submitted
// before the first of them completes. Every commit record must be
// submitted no earlier than the latest completion of its slots.
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
	ios := r.commitIOs()
	if len(ios) == 0 {
		t.Fatal("no commit record written")
	}
	for _, c := range ios {
		if slotsDone := latest(c.slots); c.record.at < slotsDone {
			t.Errorf("commit record submitted at %d ns, before its last log slot completed at %d ns", c.record.at, slotsDone)
		}
		if n := len(c.slots); n >= 4 && c.slots[n-1].at >= c.slots[0].done {
			t.Errorf("log slot %d of %d submitted at %d ns, after slot 1 completed at %d ns: the slots were written one at a time",
				n, n, c.slots[n-1].at, c.slots[0].done)
		}
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
// in the background, in order. The committing operation returns once its
// commit record has completed, before its installs have. Its installs are
// submitted no earlier than the record's completion, and its cleared
// record no earlier than the last install's completion. The next commit
// submits its first log slot no earlier than that clear's completion,
// because only then may it reuse the log.
func (r *Rig) RequireCheckpointOrder(t testing.TB) {
	t.Helper()
	spans, ios := r.tracedCommits(t)
	for i, c := range ios {
		end, installed := spans[i].Start+spans[i].Dur, latest(c.installs)
		if end < c.record.done || end >= installed {
			t.Errorf("commit %d returned at %d ns, want at or after its record completed (%d ns) and before its install did (%d ns)",
				i, end, c.record.done, installed)
		}
		for _, w := range c.installs {
			if w.at < c.record.done {
				t.Errorf("commit %d installed block %d at %d ns, before its record completed at %d ns", i, w.blk, w.at, c.record.done)
			}
		}
		if c.clear.at < installed {
			t.Errorf("commit %d cleared its record at %d ns, before its install completed at %d ns", i, c.clear.at, installed)
		}
		if i > 0 && c.slots[0].at < ios[i-1].clear.done {
			t.Errorf("commit %d wrote its first log slot at %d ns, before commit %d's clear completed at %d ns",
				i, c.slots[0].at, i-1, ios[i-1].clear.done)
		}
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
// have left no trace on the device: the log header holds no blocks, and
// the image checks clean as the failure left it.
func (r *Rig) RequireUncommitted(t testing.TB) {
	t.Helper()
	clk := vclock.NewClock()
	buf := make([]byte, layout.BlockSize)
	if err := r.Dev.Read(clk, int(r.SB.LogStart), buf); err != nil {
		t.Fatal(err)
	}
	if lh := layout.DecodeLogHeader(buf); lh.N != 0 {
		t.Fatalf("log header holds %d blocks after a failed log write; the transaction must not commit", lh.N)
	}
	rep, err := layout.Fsck(clk, r.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after a failed log write: %v", rep.Errors)
	}
}
