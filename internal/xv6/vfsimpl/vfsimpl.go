// Package vfsimpl mounts the xv6 file system straight under the simulated
// kernel's VFS interface — the Go rendering of the paper's C baseline
// ("C-Kernel" bars in every figure) — and, with other mechanisms, the
// ext4 comparator (internal/ext4).
//
// The file system is internal/xv6/bentoimpl's, the code Bento and the
// FUSE daemon run: the paper's variants differ in the API the file system
// is written against, not in its algorithm. What separates them here is
// what each mount fixes around that one code:
//
//   - the disk: Bento's bentoks.SuperBlock, whose checked wrappers charge
//     a wrapper check per borrow and track every buffer in an ownership
//     checker, or the raw kernel buffer cache (bentoks.RawDisk) that the
//     C-Kernel and ext4 run on;
//   - the write-back entry point: Bento's shim and ext4 take the batched
//     ->writepages path, the C-Kernel only the one-page WritePage;
//   - the journal policy: xv6's per-operation log or jbd2's compound
//     transaction (bentoimpl.Mechanisms.Journal);
//   - directory lookup: a dirent scan or an in-memory index
//     (bentoimpl.Mechanisms.Dirs);
//   - the geometry and the buffer-cache size.
//
// FS is the kernel.FileSystem adapter over the shared code: it turns a
// page-cache fill into a read and a write-back run into a write, and on
// unmount counts the buffers still held, the check Bento's ownership
// checker makes.
package vfsimpl

import (
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
)

// Type registers the baseline with the kernel under Name.
type Type struct {
	Cfg Config
}

// Config parameterizes the file system.
type Config struct {
	// FlushCommits issues device FLUSH commands around log commits
	// (crash-safe); off by default like the benchmarked configuration.
	FlushCommits bool
	// DataBypass routes regular-file contents around the buffer cache
	// and the log: data blocks move directly between the device and the
	// pages above, so file data is cached once (in the page cache) and
	// the log journals metadata only. Directories, bitmaps, inodes,
	// indirect blocks, and the log region keep using the buffer cache.
	DataBypass bool
}

// Name implements kernel.FileSystemType.
func (Type) Name() string { return "xv6vfs" }

// Mount implements kernel.FileSystemType.
func (tt Type) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	buf := make([]byte, layout.BlockSize)
	if err := dev.Read(t.Clk, 1, buf); err != nil {
		return nil, err
	}
	super, err := layout.DecodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	return New(t, dev, super, 0, bentoimpl.Mechanisms{
		Name:       "xv6vfs",
		Journal:    journal.PerOp(),
		Dirs:       bentoimpl.ScanDirs(),
		Barriers:   tt.Cfg.FlushCommits,
		DataBypass: tt.Cfg.DataBypass,
	})
}

// New mounts the file system with geometry super on dev under m, over a
// buffer cache of cacheBlocks blocks (0 takes the kernel's default),
// replaying a committed transaction the journal still holds.
func New(t *kernel.Task, dev *blockdev.Device, super layout.Superblock, cacheBlocks int, m bentoimpl.Mechanisms) (*FS, error) {
	disk := bentoks.NewRawDisk(t, kernel.NewBufferCache(dev, t.Model(), cacheBlocks))
	fs, err := bentoimpl.Mount(t, disk, super, m)
	if err != nil {
		return nil, err
	}
	return &FS{fs: fs, disk: disk, name: m.Name}, nil
}

// FS is one mounted instance of the file system.
type FS struct {
	fs   *bentoimpl.FS
	disk *bentoks.RawDisk
	name string
}

var (
	_ kernel.FileSystem        = (*FS)(nil)
	_ kernel.BlockCacheDropper = (*FS)(nil)
	_ kernel.PageLender        = (*FS)(nil)
)

// BufferCache exposes the metadata cache (tests and diagnostics).
func (fs *FS) BufferCache() *kernel.BufferCache { return fs.disk.BufferCache() }

// Super returns the parsed superblock geometry.
func (fs *FS) Super() layout.Superblock { return fs.fs.Super() }

// DropCleanBlocks implements kernel.BlockCacheDropper (drop_caches).
func (fs *FS) DropCleanBlocks() int { return fs.disk.BufferCache().DropClean() }

// Root implements kernel.FileSystem.
func (fs *FS) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (fs *FS) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.fs.Lookup(t, dir, name)
}

// GetAttr implements kernel.FileSystem.
func (fs *FS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	return fs.fs.GetAttr(t, ino)
}

// SetSize implements kernel.FileSystem.
func (fs *FS) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	return fs.fs.SetAttr(t, ino, size)
}

// Create implements kernel.FileSystem.
func (fs *FS) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.fs.Create(t, dir, name)
}

// Mkdir implements kernel.FileSystem.
func (fs *FS) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.fs.Mkdir(t, dir, name)
}

// Unlink implements kernel.FileSystem.
func (fs *FS) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	return fs.fs.Unlink(t, dir, name)
}

// Rmdir implements kernel.FileSystem.
func (fs *FS) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	return fs.fs.Rmdir(t, dir, name)
}

// Rename implements kernel.FileSystem.
func (fs *FS) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	return fs.fs.Rename(t, odir, oname, ndir, nname)
}

// Link implements kernel.FileSystem.
func (fs *FS) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.fs.Link(t, ino, dir, name)
}

// ReadDir implements kernel.FileSystem.
func (fs *FS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	return fs.fs.ReadDir(t, dir)
}

// Open implements kernel.FileSystem.
func (fs *FS) Open(t *kernel.Task, ino fsapi.Ino) error { return fs.fs.Open(t, ino) }

// Release implements kernel.FileSystem.
func (fs *FS) Release(t *kernel.Task, ino fsapi.Ino) error { return fs.fs.Release(t, ino) }

// ReadPage implements kernel.FileSystem: a read of the page, its tail
// past EOF zeroed.
func (fs *FS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	n, err := fs.fs.Read(t, ino, pg*fsapi.PageSize, buf)
	if err != nil {
		return err
	}
	clear(buf[n:])
	return nil
}

// LendPage implements kernel.PageLender: a page that is one whole block of
// a direct file's data is lent straight from the device. The question
// comes first and costs nothing; a no is a nil view.
func (fs *FS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	if !fs.fs.CanLendPage(ino, pg) {
		return nil, nil
	}
	return fs.fs.LendPage(t, ino, pg)
}

// WritePage implements kernel.FileSystem: a run of one page — the
// un-batched ->writepage path that costs the C baseline its edge on large
// writes in the paper's Figure 4.
func (fs *FS) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	return fs.WriteBatch(t, ino, pg, [][]byte{buf}, newSize)
}

// WriteBatch is the batched ->writepages path: the run's bytes below
// newSize are written in operations bounded by the per-operation credit,
// straight from the page buffers — which the kernel has given up, so
// whole blocks of direct data are handed to the device, not copied. ext4
// exposes it as kernel.BatchWriter; Type does not, the C-Kernel's
// one-page WritePage being the paper's Figure 4 mechanism.
func (fs *FS) WriteBatch(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	for _, p := range pages {
		if len(p) != fsapi.PageSize {
			return fsapi.ErrInvalid
		}
	}
	off := pg * fsapi.PageSize
	if off >= newSize {
		return nil
	}
	total := min(int64(len(pages))*fsapi.PageSize, newSize-off)
	_, err := fs.fs.WritePages(t, ino, off, pages, total)
	return err
}

// Fsync implements kernel.FileSystem.
func (fs *FS) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	return fs.fs.Fsync(t, ino, dataOnly)
}

// Sync implements kernel.FileSystem.
func (fs *FS) Sync(t *kernel.Task) error { return fs.fs.SyncFS(t) }

// StatFS implements kernel.FileSystem.
func (fs *FS) StatFS(t *kernel.Task) (fsapi.FSStat, error) { return fs.fs.StatFS(t) }

// Unmount implements kernel.FileSystem: a final sync and the wait for
// its checkpoint, then the leak check BentoFS.Unmount runs through its
// ownership checker, made here by counting the buffers still referenced.
func (fs *FS) Unmount(t *kernel.Task) error {
	if err := fs.fs.Destroy(t); err != nil {
		return err
	}
	if n := fs.disk.BufferCache().Held(); n > 0 {
		return fmt.Errorf("%s: %d buffer(s) still referenced at unmount: %w", fs.name, n, fsapi.ErrInvalid)
	}
	return nil
}
