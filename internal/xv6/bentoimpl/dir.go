package bentoimpl

import (
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// Dirs is how the file system finds a name in a directory. A directory is
// the same dirent array on disk either way; an index is told of every
// record written and cleared so it stays in step with it.
type Dirs interface {
	// lookup finds name in dp, which is loaded: its inode and, when
	// needOff is set, its record's byte offset.
	lookup(t *kernel.Task, dp *Inode, name string, needOff bool) (uint32, int64, error)
	// empty reports whether dp holds nothing but "." and "..".
	empty(t *kernel.Task, dp *Inode) (bool, error)
	// linked, unlinked and removed follow a record written, a record
	// cleared, and a directory deleted.
	linked(dir uint32, name string, ino uint32)
	unlinked(dir uint32, name string)
	removed(dir uint32)
}

// ScanDirs is xv6's lookup, Bento's and the C-Kernel's: a linear scan of
// the directory's records on every call.
func ScanDirs() Dirs { return scanDirs{} }

type scanDirs struct{}

func (scanDirs) lookup(t *kernel.Task, dp *Inode, name string, _ bool) (uint32, int64, error) {
	if dp.din.Type != layout.TypeDir {
		return 0, 0, fsapi.ErrNotDir
	}
	size := int64(dp.din.Size)
	// dp's block scratch is free here: directory contents never take the
	// direct path, so readi on a directory cannot touch it.
	buf := dp.bounceBuf()
	for base := int64(0); base < size; base += layout.BlockSize {
		n := min(layout.BlockSize, size-base)
		if _, err := dp.readi(t, base, buf[:n]); err != nil {
			return 0, 0, err
		}
		for o := int64(0); o < n; o += layout.DirentSize {
			if ino, ok := layout.DirentIs(buf[o:], name); ok {
				return ino, base + o, nil
			}
		}
	}
	return 0, 0, fsapi.ErrNotExist
}

func (scanDirs) empty(t *kernel.Task, dp *Inode) (bool, error) {
	size := int64(dp.din.Size)
	buf := dp.dent[:]
	for o := int64(0); o < size; o += layout.DirentSize {
		if _, err := dp.readi(t, o, buf); err != nil {
			return false, err
		}
		de := layout.DecodeDirent(buf)
		if de.Ino != 0 && de.Name != "." && de.Name != ".." {
			return false, nil
		}
	}
	return true, nil
}

func (scanDirs) linked(uint32, string, uint32) {}
func (scanDirs) unlinked(uint32, string)       {}
func (scanDirs) removed(uint32)                {}

// IndexedDirs is ext4's lookup: an in-memory name index per directory
// (the htree stand-in), built by one scan on first use and kept in step
// with every record written, so a lookup is a hash probe charged as one.
// Only a mutation that needs a record's offset scans for it.
func IndexedDirs() Dirs { return dirIndex{} }

type dirIndex map[uint32]map[string]uint32

// of returns dp's index, building it on first use. The cached map is
// returned directly — callers only probe or iterate it within their own
// operation, so no defensive copy is made (a per-call copy would be an
// allocation on every warm lookup). dp is loaded.
func (x dirIndex) of(t *kernel.Task, dp *Inode) (map[string]uint32, error) {
	if idx, ok := x[dp.inum]; ok {
		return idx, nil
	}
	idx := make(map[string]uint32)
	size := int64(dp.din.Size)
	buf := dp.bounceBuf()
	for base := int64(0); base < size; base += layout.BlockSize {
		n := min(layout.BlockSize, size-base)
		if _, err := dp.readi(t, base, buf[:n]); err != nil {
			return nil, err
		}
		for o := int64(0); o < n; o += layout.DirentSize {
			de := layout.DecodeDirent(buf[o:])
			if de.Ino != 0 {
				idx[de.Name] = de.Ino
			}
		}
	}
	x[dp.inum] = idx
	return idx, nil
}

func (x dirIndex) lookup(t *kernel.Task, dp *Inode, name string, needOff bool) (uint32, int64, error) {
	if dp.din.Type != layout.TypeDir {
		return 0, 0, fsapi.ErrNotDir
	}
	idx, err := x.of(t, dp)
	if err != nil {
		return 0, 0, err
	}
	t.Charge(t.Model().PageCacheLookup) // hash probe
	ino, ok := idx[name]
	if !ok {
		return 0, 0, fsapi.ErrNotExist
	}
	if !needOff {
		return ino, -1, nil
	}
	size := int64(dp.din.Size)
	rec := dp.dent[:]
	for o := int64(0); o < size; o += layout.DirentSize {
		if _, err := dp.readi(t, o, rec); err != nil {
			return 0, 0, err
		}
		if ino, ok := layout.DirentIs(rec, name); ok {
			return ino, o, nil
		}
	}
	// The index said yes but the disk disagrees: drop the stale index.
	delete(x, dp.inum)
	return 0, 0, fsapi.ErrNotExist
}

func (x dirIndex) empty(t *kernel.Task, dp *Inode) (bool, error) {
	idx, err := x.of(t, dp)
	if err != nil {
		return false, err
	}
	for n := range idx {
		if n != "." && n != ".." {
			return false, nil
		}
	}
	return true, nil
}

func (x dirIndex) linked(dir uint32, name string, ino uint32) {
	if m, ok := x[dir]; ok {
		m[name] = ino
	}
}

func (x dirIndex) unlinked(dir uint32, name string) {
	if m, ok := x[dir]; ok {
		delete(m, name)
	}
}

func (x dirIndex) removed(dir uint32) { delete(x, dir) }

// dirlookup finds name in dp, which is loaded, the mount's way (Dirs):
// the entry's inum and, when needOff is set, the byte offset of its
// record.
func (fs *FS) dirlookup(t *kernel.Task, dp *Inode, name string, needOff bool) (inum uint32, off int64, err error) {
	return fs.mech.Dirs.lookup(t, dp, name, needOff)
}

// dirlink adds entry name->inum to dp, reusing a free slot or extending
// the directory. dp is loaded; caller holds a transaction.
func (fs *FS) dirlink(t *kernel.Task, dp *Inode, name string, inum uint32) error {
	if len(name) > layout.MaxNameLen {
		return fsapi.ErrNameTooLong
	}
	if _, _, err := fs.dirlookup(t, dp, name, false); err == nil {
		return fsapi.ErrExist
	}
	// Find a free slot.
	size := int64(dp.din.Size)
	buf := dp.dent[:]
	off := size
	for o := int64(0); o < size; o += layout.DirentSize {
		if _, err := dp.readi(t, o, buf); err != nil {
			return err
		}
		if layout.DecodeDirent(buf).Ino == 0 {
			off = o
			break
		}
	}
	if err := layout.EncodeDirent(layout.Dirent{Ino: inum, Name: name}, buf); err != nil {
		return err
	}
	n, err := dp.writei(t, off, buf)
	if err != nil {
		return err
	}
	if n != layout.DirentSize {
		return fsapi.ErrIO
	}
	fs.mech.Dirs.linked(dp.inum, name, inum)
	return nil
}

// zeroDirent is the all-zero record dirunlink writes; writei only reads
// its source, so one shared instance serves every unlink.
var zeroDirent [layout.DirentSize]byte

// dirunlink zeroes name's record at off (found by dirlookup). dp is
// loaded; caller holds a transaction.
func (fs *FS) dirunlink(t *kernel.Task, dp *Inode, name string, off int64) error {
	n, err := dp.writei(t, off, zeroDirent[:])
	if err != nil {
		return err
	}
	if n != layout.DirentSize {
		return fsapi.ErrIO
	}
	fs.mech.Dirs.unlinked(dp.inum, name)
	return nil
}

// readDirEntries lists dp's live entries. dp is loaded.
func (fs *FS) readDirEntries(t *kernel.Task, dp *Inode) ([]fsapi.DirEntry, error) {
	if dp.din.Type != layout.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	size := int64(dp.din.Size)
	buf := dp.bounceBuf()
	var out []fsapi.DirEntry
	for base := int64(0); base < size; base += layout.BlockSize {
		n := min(layout.BlockSize, size-base)
		if _, err := dp.readi(t, base, buf[:n]); err != nil {
			return nil, err
		}
		for o := int64(0); o < n; o += layout.DirentSize {
			de := layout.DecodeDirent(buf[o:])
			if de.Ino == 0 || de.Name == "." || de.Name == ".." {
				continue
			}
			ent := fsapi.DirEntry{Name: de.Name, Ino: fsapi.Ino(de.Ino)}
			// Entry type requires peeking at the child inode; this is a
			// read-only probe that tolerates concurrent removal.
			child := fs.iget(de.Ino)
			if err := child.iload(t); err == nil {
				switch child.din.Type {
				case layout.TypeDir:
					ent.Type = fsapi.TypeDir
				case layout.TypeFile:
					ent.Type = fsapi.TypeFile
				}
			}
			if err := fs.iputOutside(t, child); err != nil {
				return nil, err
			}
			out = append(out, ent)
		}
	}
	return out, nil
}
