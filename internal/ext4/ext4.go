// Package ext4 is the commercial-grade comparator for Table 6: a native
// kernel file system in the mold of ext4 with data=journal, as the paper
// mounts it ("so it logs file data in the journal like the xv6 file
// system").
//
// It is the C-Kernel's file system (internal/xv6/bentoimpl over the raw
// buffer cache, as internal/xv6/vfsimpl mounts it) — the same inodes,
// block map, truncate, directories and VFS operations over the xv6
// record formats — mounted with the mechanisms that matter to the
// evaluation where ext4 differs:
//
//   - a JBD2-style journal (journal.Compound): operations join a running
//     compound transaction that commits on fsync/sync or once it grows
//     past CommitThreshold — not per operation as xv6's log does — so
//     durability barriers (FLUSH) are paid once per compound commit. The
//     log is the one every xv6 variant runs (internal/xv6/journal), under
//     that policy: one batch of log writes per commit.
//   - an in-memory directory index (bentoimpl.IndexedDirs, the htree
//     stand-in) for O(1) lookup.
//   - the batched ->writepages write-back path (kernel.BatchWriter).
//
// These are exactly the mechanisms that let ext4 beat the xv6 variants by
// small factors on the paper's macrobenchmarks. Its own are only its
// geometry (a larger journal under its own superblock magic, Mkfs) and
// its 8 192-block buffer cache; layout.Fsck checks its images as it does
// xv6's.
package ext4

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// CommitThreshold is the journal block count that triggers a background
// commit (jbd2's do-commit-when-transaction-is-large behaviour).
const CommitThreshold = 384

// JournalSize is the journal data region in blocks; one compound
// transaction must fit.
const JournalSize = 1020

// cacheBlocks is the buffer cache's capacity (32 MiB).
const cacheBlocks = 8192

// Type registers ext4 with the kernel.
type Type struct {
	Cfg Config
}

// Config parameterizes the file system.
type Config struct {
	// NoBarriers drops the FLUSH in commits (like mounting with
	// barrier=0); benchmarks comparing pure software paths may set it.
	NoBarriers bool
	// DataBypass routes regular-file contents around the buffer cache
	// and the journal: data blocks move directly between the device and
	// the pages above, demoting the mount from data=journal to
	// data=writeback-style semantics while keeping metadata journaling
	// intact. The paper mounts ext4 with data=journal only to match
	// xv6's journal-everything log; when the xv6 variants run the
	// bypass, enabling it here keeps the comparison apples-to-apples.
	DataBypass bool
}

// Name implements kernel.FileSystemType.
func (Type) Name() string { return "ext4" }

// Mkfs formats dev with an ext4 file system (root directory only).
func Mkfs(t *kernel.Task, dev *blockdev.Device, ninodes uint32) error {
	sb, err := geometry(uint32(dev.Blocks()), ninodes)
	if err != nil {
		return err
	}
	buf := make([]byte, layout.BlockSize)
	sb.Encode(buf)
	return layout.Format(t.Clk, dev, sb, buf)
}

// geometry lays out a device of size blocks: boot block, superblock, the
// journal's header and JournalSize blocks, the inode table, a bitmap
// covering the whole device, then data.
func geometry(size, ninodes uint32) (layout.Superblock, error) {
	nInodeBlocks := (ninodes + layout.InodesPerBlock - 1) / layout.InodesPerBlock
	bmapBlocks := (size + layout.BitsPerBlock - 1) / layout.BitsPerBlock
	meta := 2 + (JournalSize + 1) + nInodeBlocks + bmapBlocks
	if meta >= size {
		return layout.Superblock{}, fmt.Errorf("ext4: device too small: %w", fsapi.ErrInvalid)
	}
	return layout.Superblock{
		Magic:      layout.Ext4Magic,
		Size:       size,
		NBlocks:    size - meta,
		NInodes:    ninodes,
		NLog:       JournalSize,
		LogStart:   2,
		InodeStart: 2 + JournalSize + 1,
		BmapStart:  2 + JournalSize + 1 + nInodeBlocks,
		DataStart:  meta,
	}, nil
}

// Mount implements kernel.FileSystemType.
func (tt Type) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	buf := make([]byte, layout.BlockSize)
	if err := dev.Read(t.Clk, 1, buf); err != nil {
		return nil, err
	}
	sb, err := layout.DecodeSuperblockAs(buf, layout.Ext4Magic)
	if err != nil {
		return nil, err
	}
	fs, err := vfsimpl.New(t, dev, sb, cacheBlocks, bentoimpl.Mechanisms{
		Name:       "ext4",
		Journal:    journal.Compound(CommitThreshold),
		Dirs:       bentoimpl.IndexedDirs(),
		Barriers:   !tt.Cfg.NoBarriers,
		DataBypass: tt.Cfg.DataBypass,
	})
	if err != nil {
		return nil, err
	}
	return &FS{fs}, nil
}

// FS is a mounted ext4 instance: the shared file system plus the batched
// ->writepages path.
type FS struct{ *vfsimpl.FS }

var (
	_ kernel.FileSystem        = (*FS)(nil)
	_ kernel.BatchWriter       = (*FS)(nil)
	_ kernel.BlockCacheDropper = (*FS)(nil)
	_ kernel.PageLender        = (*FS)(nil)
)

// WritePages implements kernel.BatchWriter.
func (fs *FS) WritePages(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	return fs.WriteBatch(t, ino, pg, pages, newSize)
}

// DataStart reports the first data-region block (tests and diagnostics).
func (fs *FS) DataStart() uint32 { return fs.Super().DataStart }
