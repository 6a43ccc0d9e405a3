package bentoimpl

import (
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// dirlookup scans directory dp for name, returning the entry's inum and
// the byte offset of the record. dp is loaded.
func (fs *FS) dirlookup(t *kernel.Task, dp *Inode, name string) (inum uint32, off int64, err error) {
	if dp.din.Type != layout.TypeDir {
		return 0, 0, fsapi.ErrNotDir
	}
	size := int64(dp.din.Size)
	// dp's block scratch is free here: directory contents never take the
	// direct path, so readi on a directory cannot touch it.
	buf := dp.bounceBuf()
	for base := int64(0); base < size; base += layout.BlockSize {
		n := size - base
		if n > layout.BlockSize {
			n = layout.BlockSize
		}
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

// dirlink adds entry name->inum to dp, reusing a free slot or extending
// the directory. dp is loaded; caller holds a transaction.
func (fs *FS) dirlink(t *kernel.Task, dp *Inode, name string, inum uint32) error {
	if len(name) > layout.MaxNameLen {
		return fsapi.ErrNameTooLong
	}
	if _, _, err := fs.dirlookup(t, dp, name); err == nil {
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
	return nil
}

// zeroDirent is the all-zero record dirunlink writes; writei only reads
// its source, so one shared instance serves every unlink.
var zeroDirent [layout.DirentSize]byte

// dirunlink zeroes the record at off (found by dirlookup). dp is
// loaded; caller holds a transaction.
func (fs *FS) dirunlink(t *kernel.Task, dp *Inode, off int64) error {
	n, err := dp.writei(t, off, zeroDirent[:])
	if err != nil {
		return err
	}
	if n != layout.DirentSize {
		return fsapi.ErrIO
	}
	return nil
}

// isDirEmpty reports whether dp contains only "." and "..". dp is
// loaded.
func (fs *FS) isDirEmpty(t *kernel.Task, dp *Inode) (bool, error) {
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

// readDirEntries lists dp's live entries. dp is loaded.
func (fs *FS) readDirEntries(t *kernel.Task, dp *Inode) ([]fsapi.DirEntry, error) {
	if dp.din.Type != layout.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	size := int64(dp.din.Size)
	buf := dp.bounceBuf()
	var out []fsapi.DirEntry
	for base := int64(0); base < size; base += layout.BlockSize {
		n := size - base
		if n > layout.BlockSize {
			n = layout.BlockSize
		}
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
