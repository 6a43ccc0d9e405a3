// Package memfs is a minimal in-memory file system implementing the
// simulated kernel's VFS interface. It backs the kernel's own unit tests
// (exercising the syscall layer, page cache, and write-back without any
// on-disk format in the way) and serves as the simplest possible worked
// example of the kernel.FileSystem contract.
package memfs

import (
	"sort"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// Type is the registerable file-system type.
type Type struct{}

// Name implements kernel.FileSystemType.
func (Type) Name() string { return "memfs" }

// Mount implements kernel.FileSystemType. The device is ignored; memfs
// lives entirely in memory.
func (Type) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	fs := &FS{inodes: make(map[fsapi.Ino]*inode), next: fsapi.RootIno + 1}
	fs.inodes[fsapi.RootIno] = &inode{
		ino:      fsapi.RootIno,
		ftype:    fsapi.TypeDir,
		nlink:    2,
		parent:   fsapi.RootIno,
		children: map[string]fsapi.Ino{},
	}
	return fs, nil
}

type inode struct {
	ino      fsapi.Ino
	ftype    fsapi.FileType
	nlink    uint32
	opens    int
	parent   fsapi.Ino // directories only; root points at itself
	data     []byte
	children map[string]fsapi.Ino // directories only
}

// FS is one mounted memfs instance.
type FS struct {
	inodes map[fsapi.Ino]*inode
	next   fsapi.Ino
	synced int // count of Sync calls, observable by tests
}

var _ kernel.FileSystem = (*FS)(nil)

// SyncCount reports how many Sync calls the file system has served.
func (fs *FS) SyncCount() int {
	return fs.synced
}

func (fs *FS) stat(ind *inode) fsapi.Stat {
	return fsapi.Stat{Ino: ind.ino, Type: ind.ftype, Size: int64(len(ind.data)), Nlink: ind.nlink}
}

// Root implements kernel.FileSystem.
func (fs *FS) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (fs *FS) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	d, ok := fs.inodes[dir]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	if d.ftype != fsapi.TypeDir {
		return fsapi.Stat{}, fsapi.ErrNotDir
	}
	switch name {
	case ".":
		return fs.stat(d), nil
	case "..":
		return fs.stat(fs.inodes[d.parent]), nil
	}
	ino, ok := d.children[name]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	return fs.stat(fs.inodes[ino]), nil
}

// GetAttr implements kernel.FileSystem.
func (fs *FS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	return fs.stat(ind), nil
}

// SetSize implements kernel.FileSystem.
func (fs *FS) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.ErrNotExist
	}
	if ind.ftype != fsapi.TypeFile {
		return fsapi.ErrIsDir
	}
	switch {
	case int64(len(ind.data)) > size:
		ind.data = ind.data[:size]
	default:
		ind.data = append(ind.data, make([]byte, size-int64(len(ind.data)))...)
	}
	return nil
}

func (fs *FS) newInode(ft fsapi.FileType) *inode {
	ind := &inode{ino: fs.next, ftype: ft, nlink: 1}
	if ft == fsapi.TypeDir {
		ind.nlink = 2
		ind.children = map[string]fsapi.Ino{}
	}
	fs.next++
	fs.inodes[ind.ino] = ind
	return ind
}

func (fs *FS) addChild(dir fsapi.Ino, name string, ft fsapi.FileType) (fsapi.Stat, error) {
	d, ok := fs.inodes[dir]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	if d.ftype != fsapi.TypeDir {
		return fsapi.Stat{}, fsapi.ErrNotDir
	}
	if _, dup := d.children[name]; dup {
		return fsapi.Stat{}, fsapi.ErrExist
	}
	ind := fs.newInode(ft)
	d.children[name] = ind.ino
	if ft == fsapi.TypeDir {
		ind.parent = dir
		d.nlink++
	}
	return fs.stat(ind), nil
}

// Create implements kernel.FileSystem.
func (fs *FS) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.addChild(dir, name, fsapi.TypeFile)
}

// Mkdir implements kernel.FileSystem.
func (fs *FS) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.addChild(dir, name, fsapi.TypeDir)
}

// Unlink implements kernel.FileSystem.
func (fs *FS) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	d, ok := fs.inodes[dir]
	if !ok {
		return fsapi.ErrNotExist
	}
	ino, ok := d.children[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	ind := fs.inodes[ino]
	if ind.ftype == fsapi.TypeDir {
		return fsapi.ErrIsDir
	}
	delete(d.children, name)
	ind.nlink--
	if ind.nlink == 0 && ind.opens == 0 {
		delete(fs.inodes, ino)
	}
	return nil
}

// Rmdir implements kernel.FileSystem.
func (fs *FS) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	d, ok := fs.inodes[dir]
	if !ok {
		return fsapi.ErrNotExist
	}
	ino, ok := d.children[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	ind := fs.inodes[ino]
	if ind.ftype != fsapi.TypeDir {
		return fsapi.ErrNotDir
	}
	if len(ind.children) != 0 {
		return fsapi.ErrNotEmpty
	}
	delete(d.children, name)
	d.nlink--
	delete(fs.inodes, ino)
	return nil
}

// Rename implements kernel.FileSystem.
func (fs *FS) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	od, ok := fs.inodes[odir]
	if !ok {
		return fsapi.ErrNotExist
	}
	nd, ok := fs.inodes[ndir]
	if !ok {
		return fsapi.ErrNotExist
	}
	ino, ok := od.children[oname]
	if !ok {
		return fsapi.ErrNotExist
	}
	if odir == ndir && oname == nname {
		return nil
	}
	moving := fs.inodes[ino]
	if tgtIno, exists := nd.children[nname]; exists {
		// The replaced entry drops one link, like an unlink; a target
		// that is another name of the moving file keeps the rest.
		tgt := fs.inodes[tgtIno]
		switch {
		case tgt.ftype == fsapi.TypeDir && moving.ftype != fsapi.TypeDir:
			return fsapi.ErrIsDir
		case tgt.ftype != fsapi.TypeDir && moving.ftype == fsapi.TypeDir:
			return fsapi.ErrNotDir
		case tgt.ftype == fsapi.TypeDir && len(tgt.children) != 0:
			return fsapi.ErrNotEmpty
		case tgt.ftype == fsapi.TypeDir:
			nd.nlink--
			tgt.nlink = 0
		default:
			tgt.nlink--
		}
		if tgt.nlink == 0 && tgt.opens == 0 {
			delete(fs.inodes, tgtIno)
		}
	}
	delete(od.children, oname)
	nd.children[nname] = ino
	if moving.ftype == fsapi.TypeDir && odir != ndir {
		moving.parent = ndir
		od.nlink--
		nd.nlink++
	}
	return nil
}

// Link implements kernel.FileSystem.
func (fs *FS) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	if ind.ftype == fsapi.TypeDir {
		return fsapi.Stat{}, fsapi.ErrPerm
	}
	d, ok := fs.inodes[dir]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	if _, dup := d.children[name]; dup {
		return fsapi.Stat{}, fsapi.ErrExist
	}
	d.children[name] = ino
	ind.nlink++
	return fs.stat(ind), nil
}

// ReadDir implements kernel.FileSystem.
func (fs *FS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	d, ok := fs.inodes[dir]
	if !ok {
		return nil, fsapi.ErrNotExist
	}
	if d.ftype != fsapi.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	out := make([]fsapi.DirEntry, 0, len(d.children))
	for name, ino := range d.children {
		out = append(out, fsapi.DirEntry{Name: name, Ino: ino, Type: fs.inodes[ino].ftype})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Open implements kernel.FileSystem.
func (fs *FS) Open(t *kernel.Task, ino fsapi.Ino) error {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.ErrNotExist
	}
	ind.opens++
	return nil
}

// Release implements kernel.FileSystem.
func (fs *FS) Release(t *kernel.Task, ino fsapi.Ino) error {
	ind, ok := fs.inodes[ino]
	if !ok {
		return nil // already reaped
	}
	ind.opens--
	if ind.opens == 0 && ind.nlink == 0 {
		delete(fs.inodes, ino)
	}
	return nil
}

// ReadPage implements kernel.FileSystem.
func (fs *FS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.ErrNotExist
	}
	clear(buf)
	off := pg * fsapi.PageSize
	if off < int64(len(ind.data)) {
		copy(buf, ind.data[off:])
	}
	return nil
}

// WritePage implements kernel.FileSystem.
func (fs *FS) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	ind, ok := fs.inodes[ino]
	if !ok {
		return fsapi.ErrNotExist
	}
	end := pg*fsapi.PageSize + int64(len(buf))
	if end > newSize+fsapi.PageSize {
		return fsapi.ErrInvalid
	}
	if int64(len(ind.data)) < end {
		ind.data = append(ind.data, make([]byte, end-int64(len(ind.data)))...)
	}
	copy(ind.data[pg*fsapi.PageSize:], buf)
	if int64(len(ind.data)) > newSize {
		ind.data = ind.data[:newSize]
	} else if int64(len(ind.data)) < newSize {
		ind.data = append(ind.data, make([]byte, newSize-int64(len(ind.data)))...)
	}
	return nil
}

// Fsync implements kernel.FileSystem.
func (fs *FS) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error { return nil }

// Sync implements kernel.FileSystem.
func (fs *FS) Sync(t *kernel.Task) error {
	fs.synced++
	return nil
}

// StatFS implements kernel.FileSystem.
func (fs *FS) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	return fsapi.FSStat{TotalInodes: int64(len(fs.inodes))}, nil
}

// Unmount implements kernel.FileSystem.
func (fs *FS) Unmount(t *kernel.Task) error { return nil }
