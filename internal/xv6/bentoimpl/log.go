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
// data is ordered data, which each commit record waits for
// (journal.Log.OrderData).
//
// The log is internal/xv6/journal's, the one the C-Kernel and ext4 run
// too, under its per-operation policy; this package supplies its block
// access through the bentoks wrappers (logDisk), so each log slot,
// install and header pays the wrapper check the paper's Bento does.
//
// A buffer is released the way the paper's Rust drops a buffer head:
// every acquisition is followed by `defer drop(b, &err)` in the function
// that made it, and no release is written by hand.
package bentoimpl

import (
	"bento/internal/bentoks"
	"bento/internal/kernel"
	"bento/internal/xv6/journal"
)

// SyncPolicy selects the durability discipline of log commits.
type SyncPolicy int

const (
	// PolicyWriteBack waits for write completion on commit but issues no
	// device FLUSH — the discipline of the paper's in-kernel xv6
	// variants, which rely on completed writes reaching the device cache.
	PolicyWriteBack SyncPolicy = iota
	// PolicyFlush issues a FLUSH after the commit record, after the
	// install and after the cleared record, making commits power-loss
	// atomic. Crash-recovery tests run under this policy.
	PolicyFlush
)

// logWrite marks bh dirty and joins its block to the running
// transaction. The buffer stays dirty in the cache until the commit
// installs it.
func (fs *FS) logWrite(t *kernel.Task, bh bentoks.Buffer) error {
	if err := bh.MarkDirty(); err != nil {
		return err
	}
	return fs.log.Write(t, uint32(bh.BlockNo()))
}

// logDisk is the log's block access (journal.Disk) through the disk the
// file system was given: every buffer it takes is a checked borrow,
// dropped on every path.
type logDisk struct{ sb bentoks.Disk }

// CopyBlock implements journal.Disk. The copy is the disk's BClone,
// which shares a home block's contents instead of copying them when they
// are immutable.
func (d *logDisk) CopyBlock(t *kernel.Task, from, to uint32) (done int64, err error) {
	src, err := d.sb.BRead(t, int(from))
	if err != nil {
		return 0, err
	}
	defer drop(src, &err)
	dst, err := d.sb.BClone(t, int(to), src)
	if err != nil {
		return 0, err
	}
	defer drop(dst, &err)
	return dst.SubmitWrite(t)
}

// SubmitHome implements journal.Disk.
func (d *logDisk) SubmitHome(t *kernel.Task, blk uint32) (done int64, err error) {
	src, err := d.sb.BRead(t, int(blk))
	if err != nil {
		return 0, err
	}
	defer drop(src, &err)
	return src.SubmitWrite(t)
}

// WithHeader implements journal.Disk.
func (d *logDisk) WithHeader(t *kernel.Task, blk uint32, fill bool, use journal.HeaderFunc) (err error) {
	var hb bentoks.Buffer
	if fill {
		hb, err = d.sb.BRead(t, int(blk))
	} else {
		hb, err = d.sb.BReadNoFill(t, int(blk))
	}
	if err != nil {
		return err
	}
	defer drop(hb, &err)
	data, err := hb.Data()
	if err != nil {
		return err
	}
	return use(t, hb, data)
}

// Flush implements journal.Disk.
func (d *logDisk) Flush(t *kernel.Task) error { return d.sb.Flush(t) }

// JournalTask implements journal.Disk: the disk's, made on first use.
func (d *logDisk) JournalTask(t *kernel.Task) *kernel.Task { return d.sb.JournalTask(t) }

// drop releases b: it is Rust's drop of a buffer head, written as one
// `defer drop(b, &err)` right after each acquisition, so a buffer goes
// back on every path out of the function that took it. A failed release
// becomes the function's error unless it already has one.
func drop(b bentoks.Buffer, err *error) {
	if e := b.Release(); *err == nil {
		*err = e
	}
}
