// Package journaltest holds what the tests of the xv6 file system share
// across the variants that run it — Bento, the C-Kernel, ext4 and the
// FUSE daemon: one rig, a traced mount made through harness.Mount on a
// device that records every write command, and the checks a mounted
// journal must pass on those commands. A commit writes its log slots as
// one batch and submits its commit record beside them, once the ordered
// data it carries has completed, without waiting for the slots; it
// returns once its record and its slots have completed and checkpoints
// (installs, then clears the record) in the background, one checkpoint
// at a time; the next commit may write its log slots while checkpoints
// run, but never over the slots of a transaction whose clear has not
// completed, and writes its own record into one of the log's two record
// blocks only once that block's last clear has completed; a commit whose
// log write fails leaves no trace on the device; and with the data
// bypass on, file data is ordered data — the file system hands the log
// each block it writes with its CRC32C, a commit record lists each block
// of the data its transaction carries that is still in flight, a commit
// returns after that data, and a write that commits nothing returns
// after its data. What recovery makes of a crash image is not checked
// here: internal/xv6/journal's crash model (TestCrashModel) owns it, at
// the log's own seam, with barriers and without, and covers a record
// placed beside a running checkpoint, two valid records, a freed block
// reused as file data and a record whose data was lost. The tests every
// variant shares are written once here too (shared.go), and each
// variant's package runs them on its own mounts.
package journaltest

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// writeCmd is one device write command: its block, when it was
// submitted and completes, in virtual nanoseconds, the layout.BlockSum
// of the contents it wrote, and, for a record block, the contents.
type writeCmd struct {
	blk      int
	at, done int64
	sum      uint32
	data     []byte
}

// recorder is a blockdev.Backend that records every write command it
// books, by copy, by reference or joined to the command before it, in
// submission order, with a copy of its contents when it writes one of
// records. From block slowFrom on, a write completes slow nanoseconds
// later than the backend says (see Rig.SlowData).
type recorder struct {
	blockdev.Backend
	writes   []writeCmd
	records  [2]uint32
	slowFrom int
	slow     int64
}

// record notes a write of buf to blk submitted at now that the backend
// completes at done, and returns its completion.
func (r *recorder) record(now int64, blk int, buf []byte, done int64) int64 {
	if r.slow > 0 && blk >= r.slowFrom {
		done += r.slow
	}
	w := writeCmd{blk: blk, at: now, done: done, sum: layout.BlockSum(buf)}
	if blk == int(r.records[0]) || blk == int(r.records[1]) {
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

// Rig is a traced mount of one variant, made through harness.Mount, on
// a 4 096-block local device formatted with 512 inodes that records its
// write commands. The mounting task starts past mkfs's device work, so
// a commit queues behind nothing but itself. Every rig runs under
// costmodel.Default().
type Rig struct {
	Model *costmodel.Model
	K     *kernel.Kernel
	M     *kernel.Mount
	Task  *kernel.Task
	Dev   *blockdev.Device
	SB    layout.Superblock
	rec   *recorder

	variant string
	mc      harness.MountConfig
}

// InKernel are the variants whose file system runs in the kernel, over
// a buffer cache and the direct data path: all but FUSE.
var InKernel = []string{harness.VariantBento, harness.VariantCKernel, harness.VariantExt4}

// The mount configurations the tables run.
var (
	// DataPaths are the two ways file data can travel, without barriers
	// as the in-kernel variants are published: through the buffer cache
	// and the journal, and around them.
	DataPaths = []harness.MountConfig{{}, {Bypass: true}}
	// BypassOn is the bypass with and without barriers.
	BypassOn = []harness.MountConfig{{Bypass: true}, {Barriers: true, Bypass: true}}
	// AllConfigs is every combination of barriers and bypass.
	AllConfigs = []harness.MountConfig{{}, {Barriers: true}, {Bypass: true}, {Barriers: true, Bypass: true}}
)

// New formats the rig's device with variant's mkfs and mounts variant
// at / under mc.
func New(t testing.TB, variant string, mc harness.MountConfig) *Rig {
	t.Helper()
	model := costmodel.Default()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	rec := &recorder{Backend: blockdev.NewLocalBackend("rig", layout.BlockSize, model)}
	dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model, Backend: rec})
	format := k.NewTask("mkfs")
	var err error
	if variant == harness.VariantExt4 {
		err = ext4.Mkfs(format, dev, 512)
	} else {
		_, err = layout.Mkfs(format.Clk, dev, 512)
	}
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.ReadSuperblock(format.Clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	rec.records = sb.RecordBlocks()
	task := k.NewTask("test")
	task.Clk.AdvanceTo(format.Clk.NowNS() + int64(time.Millisecond))
	m, err := harness.Mount(k, task, dev, variant, mc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Rig{Model: model, K: k, M: m, Task: task, Dev: dev, SB: sb, rec: rec, variant: variant, mc: mc}
}

// Each runs fn as a subtest for every variant under every mount
// configuration, named variant, then barriers/bypass with "no" before a
// setting that is off. FUSE's daemon never bypasses
// (harness.MountConfig), so a FUSE row with the bypass set is left out.
func Each(t *testing.T, variants []string, mcs []harness.MountConfig, fn func(t *testing.T, variant string, mc harness.MountConfig)) {
	t.Helper()
	for _, v := range variants {
		t.Run(v, func(t *testing.T) {
			for _, mc := range mcs {
				if v == harness.VariantFUSE && mc.Bypass {
					continue
				}
				t.Run(configName(mc), func(t *testing.T) { fn(t, v, mc) })
			}
		})
	}
}

// A Row is one variant under one mount configuration, as a table whose
// subtests keep names of their own runs it.
type Row struct {
	Name    string
	Variant string
	MC      harness.MountConfig
}

// Run runs fn as a subtest per row, named after it.
func Run(t *testing.T, rows []Row, fn func(t *testing.T, variant string, mc harness.MountConfig)) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) { fn(t, r.Variant, r.MC) })
	}
}

// BypassRows are variant's mounts without barriers, named
// "bypass=false" and "bypass=true".
func BypassRows(variant string) []Row {
	return []Row{
		{Name: "bypass=false", Variant: variant},
		{Name: "bypass=true", Variant: variant, MC: harness.MountConfig{Bypass: true}},
	}
}

// configName names mc as Each's subtests do, e.g. "barriers/nobypass".
func configName(mc harness.MountConfig) string {
	name := func(on bool, s string) string {
		if on {
			return s
		}
		return "no" + s
	}
	return name(mc.Barriers, "barriers") + "/" + name(mc.Bypass, "bypass")
}

// Remount mounts dev at / on a new kernel as the rig's variant and
// configuration, recovering its journal, and returns the mount and the
// task that mounted it.
func (r *Rig) Remount(t testing.TB, dev *blockdev.Device) (*kernel.Mount, *kernel.Task) {
	t.Helper()
	k := kernel.New(r.Model)
	task := k.NewTask("remount")
	m, err := harness.Mount(k, task, dev, r.variant, r.mc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, task
}

// Unmount unmounts the rig, which fails on the C-Kernel and ext4 while a
// buffer is still held, and requires Bento's ownership checker to have
// recorded nothing.
func (r *Rig) Unmount(t testing.TB) {
	t.Helper()
	fs := r.M.FS()
	if err := r.K.Unmount(r.Task, "/"); err != nil {
		t.Fatalf("Unmount: %v", err)
	}
	if shim, ok := fs.(*core.BentoFS); ok {
		if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
			t.Fatalf("ownership violations: %v", v)
		}
	}
}

// BufferCache returns the buffer cache an in-kernel variant's file
// system reads its metadata through, or nil under FUSE.
func (r *Rig) BufferCache() *kernel.BufferCache {
	switch fs := r.M.FS().(type) {
	case *core.BentoFS:
		return fs.SuperBlock().BufferCache()
	case interface{ BufferCache() *kernel.BufferCache }:
		return fs.BufferCache()
	}
	return nil
}

// Fsck syncs the mount and requires its device to check clean, returning
// the report.
func (r *Rig) Fsck(t testing.TB) *layout.FsckReport {
	t.Helper()
	if err := r.M.Sync(r.Task); err != nil {
		t.Fatal(err)
	}
	rep, err := layout.Fsck(r.Task.Clk, r.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck: %v", rep.Errors)
	}
	return rep
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
// submitted no earlier than the completion of the record, the slots and
// the data the commit carries, nor than the previous commit's clear's
// completion: one checkpoint runs at a time, in commit order. Its
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
			if done := max(logged, latest(c.data)); w.at < done {
				t.Errorf("commit %d installed block %d at %d ns, before its record, slots and data completed at %d ns", i, w.blk, w.at, done)
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
	if err := r.K.Unmount(r.Task, "/"); err != nil {
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

// SlowData makes every write of a data-region block complete d later
// than the device says, as a device that reorders would: queue order then
// no longer keeps a transaction's data ahead of its log slots, and only
// the commit's own wait keeps it ahead of the commit record.
func (r *Rig) SlowData(d time.Duration) {
	r.rec.slowFrom, r.rec.slow = int(r.SB.DataStart), int64(d)
}

// RequireOrderedData runs write on the rig's task and checks the ordered
// data rule on the device writes it made. Each data write a commit
// carries — written outside the log before the commit record — either
// completed before that record was submitted or is listed in the record
// with the CRC32C of what it wrote (a later write of the same block
// standing in for it), and the commit returns no earlier than the latest
// of them completes. write returns on the rig's task no earlier than the
// latest completion of the data it wrote, whether a commit carried that
// data or none has yet. write may commit on another task; it must write
// some data, and it must not return inside a commit.
func (r *Rig) RequireOrderedData(t testing.TB, write func(*kernel.Task) error) {
	t.Helper()
	from := len(r.rec.writes)
	if err := write(r.Task); err != nil {
		t.Fatal(err)
	}
	ios, data := r.commitIOsFrom(from)
	spans := r.Commits(1)
	if len(spans) < len(ios) {
		t.Fatalf("%d commit spans traced for %d commits written", len(spans), len(ios))
	}
	spans = spans[len(spans)-len(ios):]
	for i, c := range ios {
		_, _, _, listed := layout.DecodeCommitRecord(c.record.data, r.SB.LogSlots())
		for j, w := range c.data {
			later := slices.ContainsFunc(c.data[j+1:], func(x writeCmd) bool { return x.blk == w.blk })
			if w.done > c.record.at && !later && !slices.Contains(listed, layout.DataBlock{Blk: uint32(w.blk), Sum: w.sum}) {
				t.Errorf("commit %d submitted its record at %d ns, before its write of block %d completed at %d ns, and does not list it with its CRC32C",
					i, c.record.at, w.blk, w.done)
			}
		}
		if end, done := spans[i].Start+spans[i].Dur, latest(c.data); end < done {
			t.Errorf("commit %d returned at %d ns, before its data completed at %d ns", i, end, done)
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
		if _, _, blocks, _ := layout.DecodeCommitRecord(buf, r.SB.LogSlots()); len(blocks) != 0 {
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
