// Package bentoimpl is the xv6 file system, written once against the
// Bento file-operations API — the Go rendering of the paper's Rust xv6 —
// and run by every variant: Bento (behind core.BentoFS, "Bento" bars in
// every figure), the FUSE daemon, and the C-Kernel and ext4, which mount
// it with Mount (internal/xv6/vfsimpl, internal/ext4). All device access
// flows through the bentoks.Disk the mount gives it, and every buffer is
// borrowed from that disk.
//
// The paper's variants differ in the API the file system is written
// against, not in its algorithm; here that difference lives in what each
// mount fixes around this one code:
//
//   - the disk: Bento's checked bentoks.SuperBlock (a wrapper check per
//     borrow, the ownership checker), the raw kernel buffer cache
//     (bentoks.RawDisk) under the C-Kernel and ext4, or FUSE's userspace
//     disk;
//   - the write-back entry point, which is the caller's: Bento's shim and
//     ext4 write a page run at a time, the C-Kernel one page at a time;
//   - the journal policy, per operation or compound (Mechanisms.Journal);
//   - directory lookup, a dirent scan or an in-memory index
//     (Mechanisms.Dirs);
//   - the geometry and the cache size, which are the disk's.
//
// The file system is xv6's design with the paper's §6.1 changes: locks
// around inode and block allocation, and a double-indirect block so files
// reach 4 GiB. With DataBypass off it journals *everything* (data and
// metadata) through a write-ahead log with group commit, as xv6 does —
// the reason the paper mounts ext4 with data=journal for comparison.
// With it on, as the published mounts run (harness.Published), file data
// goes straight to the device and the log carries metadata only; the
// data is ordered data, which each commit record waits for
// (journal.Log.OrderData).
//
// The log is internal/xv6/journal's; this package supplies its block
// access through the mount's disk (logDisk), so each log slot, install
// and header pays what a borrow from that disk costs — the wrapper check
// on Bento, nothing on the raw buffer cache.
//
// A buffer is released the way the paper's Rust drops a buffer head:
// every acquisition is followed by `defer drop(b, &err)` in the function
// that made it, and no release is written by hand.
package bentoimpl

import (
	"bento/internal/bentoks"
	"bento/internal/kernel"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
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
// are immutable, and the sum is taken of the block in hand.
func (d *logDisk) CopyBlock(t *kernel.Task, from, to uint32) (done int64, sum uint32, err error) {
	src, err := d.sb.BRead(t, int(from))
	if err != nil {
		return 0, 0, err
	}
	defer drop(src, &err)
	data, err := src.View()
	if err != nil {
		return 0, 0, err
	}
	dst, err := d.sb.BClone(t, int(to), src)
	if err != nil {
		return 0, 0, err
	}
	defer drop(dst, &err)
	done, err = dst.SubmitWrite(t)
	return done, layout.BlockSum(data), err
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

// ReadBlocks implements journal.Disk: the disk's batched read, then
// each block summed from the cache.
func (d *logDisk) ReadBlocks(t *kernel.Task, blks, sums []uint32) error {
	ints := make([]int, len(blks))
	for i, b := range blks {
		ints[i] = int(b)
	}
	if err := d.sb.BReadAhead(t, ints); err != nil {
		return err
	}
	for i := range sums {
		var err error
		if sums[i], err = d.blockSum(t, blks[i]); err != nil {
			return err
		}
	}
	return nil
}

// blockSum returns the layout.BlockSum of block blk.
func (d *logDisk) blockSum(t *kernel.Task, blk uint32) (sum uint32, err error) {
	bh, err := d.sb.BRead(t, int(blk))
	if err != nil {
		return 0, err
	}
	defer drop(bh, &err)
	data, err := bh.View()
	return layout.BlockSum(data), err
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
