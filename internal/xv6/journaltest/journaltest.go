// Package journaltest holds what the tests of the xv6 journals share —
// Bento's (bentoimpl) and the C-Kernel's and ext4's (vfsimpl): a traced
// mount whose device records every write command, and the checks every
// journal must pass. A commit writes its log slots as one batch and
// submits its commit record only after the last slot completes; a
// commit whose log write fails leaves no trace on the device.
package journaltest

import (
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
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
// books, by copy or by reference, in submission order.
type recorder struct {
	blockdev.Backend
	writes []writeCmd
}

func (r *recorder) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitBlock(now, blk, buf)
	r.writes = append(r.writes, writeCmd{blk, now, done})
	return done, err
}

func (r *recorder) SubmitOwned(now int64, blk int, buf []byte) (int64, error) {
	done, err := r.Backend.SubmitOwned(now, blk, buf)
	r.writes = append(r.writes, writeCmd{blk, now, done})
	return done, err
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
	logStart := int(r.SB.LogStart)
	var slots []writeCmd
	records := 0
	for _, w := range r.rec.writes {
		switch {
		case w.blk == logStart:
			if len(slots) == 0 {
				continue // the cleared record
			}
			records++
			var latest int64
			for _, s := range slots {
				latest = max(latest, s.done)
			}
			if w.at < latest {
				t.Errorf("commit record submitted at %d ns, before its last log slot completed at %d ns", w.at, latest)
			}
			if n := len(slots); n >= 4 && slots[n-1].at >= slots[0].done {
				t.Errorf("log slot %d of %d submitted at %d ns, after slot 1 completed at %d ns: the slots were written one at a time",
					n, n, slots[n-1].at, slots[0].done)
			}
			slots = slots[:0]
		case w.blk > logStart && w.blk <= logStart+int(r.SB.NLog):
			slots = append(slots, w)
		}
	}
	if records == 0 {
		t.Fatal("no commit record written")
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
