package vfsimpl

import (
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

func (fs *FS) statOf(ip *inode) fsapi.Stat {
	st := fsapi.Stat{Ino: fsapi.Ino(ip.inum), Size: int64(ip.din.Size), Nlink: uint32(ip.din.Nlink)}
	switch ip.din.Type {
	case layout.TypeDir:
		st.Type = fsapi.TypeDir
	case layout.TypeFile:
		st.Type = fsapi.TypeFile
	}
	return st
}

// Root implements kernel.FileSystem.
func (fs *FS) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (fs *FS) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	dp := fs.iget(uint32(dir))
	defer fs.iput(t, dp, false)
	if err := fs.iload(t, dp); err != nil {
		return fsapi.Stat{}, err
	}
	inum, _, err := fs.dirs.lookup(fs, t, dp, name, false)
	if err != nil {
		return fsapi.Stat{}, err
	}
	ip := fs.iget(inum)
	defer fs.iput(t, ip, false)
	if err := fs.iload(t, ip); err != nil {
		return fsapi.Stat{}, err
	}
	st := fs.statOf(ip)
	return st, nil
}

// GetAttr implements kernel.FileSystem.
func (fs *FS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, false)
	if err := fs.iload(t, ip); err != nil {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	st := fs.statOf(ip)
	return st, nil
}

// SetSize implements kernel.FileSystem.
func (fs *FS) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	if size < 0 || size > layout.MaxFileSize {
		return fsapi.ErrInvalid
	}
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, false)
	if err := fs.iload(t, ip); err != nil {
		return err
	}
	if ip.din.Type == layout.TypeDir {
		return fsapi.ErrIsDir
	}
	fs.beginOp(t)
	defer fs.endOp(t)
	if size == 0 {
		return fs.itrunc(t, ip)
	}
	old := int64(ip.din.Size)
	if size < old {
		// Free and unmap the whole tail blocks, zero the partial one.
		// Emptied indirect blocks stay allocated until a truncate to zero.
		firstDead := (size + layout.BlockSize - 1) / layout.BlockSize
		lastOld := (old + layout.BlockSize - 1) / layout.BlockSize
		for bn := firstDead; bn < lastOld; bn++ {
			blk, _, err := fs.bmap(t, ip, uint64(bn), false)
			if err != nil {
				return err
			}
			if blk == 0 {
				continue
			}
			if err := fs.bfree(t, blk); err != nil {
				return err
			}
			if err := fs.clearMap(t, ip, uint64(bn)); err != nil {
				return err
			}
		}
		if size%layout.BlockSize != 0 {
			if blk, _, err := fs.bmap(t, ip, uint64(size/layout.BlockSize), false); err != nil {
				return err
			} else if blk != 0 && fs.dataDirect(ip) {
				// Direct read-modify-write: zero the tail on the device.
				tail := make([]byte, layout.BlockSize)
				if err := fs.bc.ReadDirect(t, int(blk), tail); err != nil {
					return err
				}
				clear(tail[size%layout.BlockSize:])
				done, err := fs.bc.WriteDirect(t, int(blk), tail)
				if err != nil {
					return err
				}
				t.WaitIO("direct-write", done)
			} else if blk != 0 {
				bh, err := fs.bc.Get(t, int(blk))
				if err != nil {
					return err
				}
				clear(bh.Data()[size%layout.BlockSize:])
				if err := fs.logWrite(t, bh); err != nil {
					_ = bh.Release()
					return err
				}
				_ = bh.Release()
			}
		}
	}
	ip.din.Size = uint64(size)
	return fs.iupdate(t, ip)
}

// Create implements kernel.FileSystem.
func (fs *FS) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.createNode(t, dir, name, layout.TypeFile)
}

// Mkdir implements kernel.FileSystem.
func (fs *FS) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.createNode(t, dir, name, layout.TypeDir)
}

func (fs *FS) createNode(t *kernel.Task, dir fsapi.Ino, name string, typ uint16) (fsapi.Stat, error) {
	if name == "" || name == "." || name == ".." {
		return fsapi.Stat{}, fsapi.ErrInvalid
	}
	fs.beginOp(t)
	defer fs.endOp(t)
	dp := fs.iget(uint32(dir))
	defer fs.iput(t, dp, true)
	if err := fs.iload(t, dp); err != nil {
		return fsapi.Stat{}, err
	}
	if dp.din.Type != layout.TypeDir {
		return fsapi.Stat{}, fsapi.ErrNotDir
	}
	if _, _, err := fs.dirs.lookup(fs, t, dp, name, false); err == nil {
		return fsapi.Stat{}, fsapi.ErrExist
	}
	ip, err := fs.ialloc(t, typ)
	if err != nil {
		return fsapi.Stat{}, err
	}
	defer fs.iput(t, ip, true)
	if typ == layout.TypeDir {
		ip.din.Nlink = 2
	} else {
		ip.din.Nlink = 1
	}
	if err := fs.iupdate(t, ip); err != nil {
		return fsapi.Stat{}, err
	}
	if typ == layout.TypeDir {
		if err := fs.dirlink(t, ip, ".", ip.inum); err != nil {
			return fsapi.Stat{}, err
		}
		if err := fs.dirlink(t, ip, "..", dp.inum); err != nil {
			return fsapi.Stat{}, err
		}
		dp.din.Nlink++
		if err := fs.iupdate(t, dp); err != nil {
			return fsapi.Stat{}, err
		}
	}
	if err := fs.dirlink(t, dp, name, ip.inum); err != nil {
		return fsapi.Stat{}, err
	}
	return fs.statOf(ip), nil
}

// Unlink implements kernel.FileSystem.
func (fs *FS) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	return fs.removeNode(t, dir, name, false)
}

// Rmdir implements kernel.FileSystem.
func (fs *FS) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	return fs.removeNode(t, dir, name, true)
}

func (fs *FS) removeNode(t *kernel.Task, dir fsapi.Ino, name string, wantDir bool) error {
	if name == "." || name == ".." {
		return fsapi.ErrInvalid
	}
	fs.beginOp(t)
	defer fs.endOp(t)
	dp := fs.iget(uint32(dir))
	defer fs.iput(t, dp, true)
	if err := fs.iload(t, dp); err != nil {
		return err
	}
	inum, off, err := fs.dirs.lookup(fs, t, dp, name, true)
	if err != nil {
		return err
	}
	ip := fs.iget(inum)
	defer fs.iput(t, ip, true)
	if err := fs.iload(t, ip); err != nil {
		return err
	}
	isDir := ip.din.Type == layout.TypeDir
	if wantDir && !isDir {
		return fsapi.ErrNotDir
	}
	if !wantDir && isDir {
		return fsapi.ErrIsDir
	}
	if isDir {
		empty, err := fs.dirs.empty(fs, t, ip)
		if err != nil {
			return err
		}
		if !empty {
			return fsapi.ErrNotEmpty
		}
	}
	if err := fs.dirunlink(t, dp, name, off); err != nil {
		return err
	}
	if isDir {
		ip.din.Nlink -= 2
		dp.din.Nlink--
		fs.dirs.removed(ip.inum)
		if err := fs.iupdate(t, dp); err != nil {
			return err
		}
	} else {
		ip.din.Nlink--
	}
	return fs.iupdate(t, ip)
}

// Rename implements kernel.FileSystem (same semantics as the Bento
// version).
func (fs *FS) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	if oname == "." || oname == ".." || nname == "." || nname == ".." {
		return fsapi.ErrInvalid
	}
	if len(nname) > layout.MaxNameLen {
		return fsapi.ErrNameTooLong
	}
	fs.beginOp(t)
	defer fs.endOp(t)

	odp := fs.iget(uint32(odir))
	defer fs.iput(t, odp, true)
	ndp := odp
	if ndir != odir {
		ndp = fs.iget(uint32(ndir))
		defer fs.iput(t, ndp, true)
	}
	if odp == ndp {
		if err := fs.iload(t, odp); err != nil {
			return err
		}
	} else {
		first, second := odp, ndp
		if ndp.inum < odp.inum {
			first, second = ndp, odp
		}
		if err := fs.iload(t, first); err != nil {
			return err
		}
		if err := fs.iload(t, second); err != nil {
			return err
		}
	}

	srcInum, srcOff, err := fs.dirs.lookup(fs, t, odp, oname, true)
	if err != nil {
		return err
	}
	if odir == ndir && oname == nname {
		return nil
	}
	src := fs.iget(srcInum)
	defer fs.iput(t, src, true)
	if err := fs.iload(t, src); err != nil {
		return err
	}
	srcIsDir := src.din.Type == layout.TypeDir

	if tgtInum, tgtOff, err := fs.dirs.lookup(fs, t, ndp, nname, true); err == nil {
		tgt := fs.iget(tgtInum)
		defer fs.iput(t, tgt, true)
		if err := fs.iload(t, tgt); err != nil {
			return err
		}
		tgtIsDir := tgt.din.Type == layout.TypeDir
		if tgtIsDir != srcIsDir {
			if tgtIsDir {
				return fsapi.ErrIsDir
			}
			return fsapi.ErrNotDir
		}
		if tgtIsDir {
			empty, err := fs.dirs.empty(fs, t, tgt)
			if err != nil {
				return err
			}
			if !empty {
				return fsapi.ErrNotEmpty
			}
			tgt.din.Nlink -= 2
			ndp.din.Nlink--
			fs.dirs.removed(tgt.inum)
		} else {
			tgt.din.Nlink--
		}
		if err := fs.iupdate(t, tgt); err != nil {
			return err
		}
		if err := fs.dirunlink(t, ndp, nname, tgtOff); err != nil {
			return err
		}
	}

	if err := fs.dirlink(t, ndp, nname, srcInum); err != nil {
		return err
	}
	if err := fs.dirunlink(t, odp, oname, srcOff); err != nil {
		return err
	}
	if srcIsDir && odir != ndir {
		_, ddOff, err := fs.dirs.lookup(fs, t, src, "..", true)
		if err != nil {
			return err
		}
		rec := src.dent[:]
		if err := layout.EncodeDirent(layout.Dirent{Ino: ndp.inum, Name: ".."}, rec); err != nil {
			return err
		}
		if _, err := fs.writei(t, src, ddOff, rec); err != nil {
			return err
		}
		fs.dirs.linked(src.inum, "..", ndp.inum)
		odp.din.Nlink--
		ndp.din.Nlink++
	}
	if err := fs.iupdate(t, odp); err != nil {
		return err
	}
	if ndp != odp {
		return fs.iupdate(t, ndp)
	}
	return nil
}

// Link implements kernel.FileSystem.
func (fs *FS) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	fs.beginOp(t)
	defer fs.endOp(t)
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, true)
	if err := fs.iload(t, ip); err != nil {
		return fsapi.Stat{}, err
	}
	if ip.din.Type == layout.TypeDir {
		return fsapi.Stat{}, fsapi.ErrPerm
	}
	ip.din.Nlink++
	if err := fs.iupdate(t, ip); err != nil {
		return fsapi.Stat{}, err
	}
	st := fs.statOf(ip)
	dp := fs.iget(uint32(dir))
	defer fs.iput(t, dp, true)
	if err := fs.iload(t, dp); err != nil {
		return fsapi.Stat{}, err
	}
	if err := fs.dirlink(t, dp, name, uint32(ino)); err != nil {
		ip.din.Nlink--
		_ = fs.iupdate(t, ip)
		return fsapi.Stat{}, err
	}
	return st, nil
}

// ReadDir implements kernel.FileSystem.
func (fs *FS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	dp := fs.iget(uint32(dir))
	defer fs.iput(t, dp, false)
	if err := fs.iload(t, dp); err != nil {
		return nil, err
	}
	if dp.din.Type != layout.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	size := int64(dp.din.Size)
	buf := dp.bounceBuf()
	var out []fsapi.DirEntry
	for base := int64(0); base < size; base += layout.BlockSize {
		n := min(layout.BlockSize, size-base)
		if _, err := fs.readi(t, dp, base, buf[:n]); err != nil {
			return nil, err
		}
		for o := int64(0); o < n; o += layout.DirentSize {
			de := layout.DecodeDirent(buf[o:])
			if de.Ino == 0 || de.Name == "." || de.Name == ".." {
				continue
			}
			ent := fsapi.DirEntry{Name: de.Name, Ino: fsapi.Ino(de.Ino)}
			child := fs.iget(de.Ino)
			if err := fs.iload(t, child); err == nil {
				switch child.din.Type {
				case layout.TypeDir:
					ent.Type = fsapi.TypeDir
				case layout.TypeFile:
					ent.Type = fsapi.TypeFile
				}
			}
			_ = fs.iput(t, child, false)
			out = append(out, ent)
		}
	}
	return out, nil
}

// Open implements kernel.FileSystem.
func (fs *FS) Open(t *kernel.Task, ino fsapi.Ino) error {
	ip := fs.iget(uint32(ino))
	if err := fs.iload(t, ip); err != nil {
		_ = fs.iput(t, ip, false)
		return fsapi.ErrNotExist
	}
	return nil
}

// Release implements kernel.FileSystem.
func (fs *FS) Release(t *kernel.Task, ino fsapi.Ino) error {
	ip, ok := fs.inodes[uint32(ino)]
	if !ok {
		return nil
	}
	return fs.iput(t, ip, false)
}

// ReadPage implements kernel.FileSystem.
func (fs *FS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, false)
	if err := fs.iload(t, ip); err != nil {
		return err
	}
	n, err := fs.readi(t, ip, pg*fsapi.PageSize, buf)
	if err != nil {
		return err
	}
	clear(buf[n:])
	return nil
}

// LendPage implements kernel.PageLender: a page that is one whole block of
// a direct file's data is lent straight from the device — ReadPage's
// bmap and direct read, with BorrowDirect in place of ReadDirect. The
// checks that decide come first and cost nothing: the inode is in core
// (it is, for any file the kernel has open), its data takes the direct
// path, and the page lies wholly inside the file.
func (fs *FS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	ip, ok := fs.inodes[uint32(ino)]
	if !ok || !ip.valid || !fs.dataDirect(ip) || (pg+1)*fsapi.PageSize > int64(ip.din.Size) {
		return nil, nil
	}
	ip.ref++ // ReadPage's iget
	defer fs.iput(t, ip, false)
	blk, _, err := fs.bmap(t, ip, uint64(pg), false)
	if err != nil {
		return nil, err
	}
	var view []byte
	if blk != 0 {
		view, err = fs.bc.BorrowDirect(t, int(blk))
	}
	if view == nil && err == nil {
		view = make([]byte, fsapi.PageSize) // a hole, or mapped and never written
	}
	return view, err
}

// WritePage implements kernel.FileSystem: one transaction per page — the
// un-batched ->writepage path that costs the C baseline its edge on large
// writes in the paper's Figure 4.
func (fs *FS) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	off := pg * fsapi.PageSize
	if off >= newSize {
		return nil
	}
	n := int64(len(buf))
	if off+n > newSize {
		n = newSize - off
	}
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, false)
	fs.beginOp(t)
	defer fs.endOp(t)
	if err := fs.iload(t, ip); err != nil {
		return err
	}
	if _, err := fs.writev(t, ip, off, [][]byte{buf[:n]}, n, true); err != nil {
		return err
	}
	if int64(ip.din.Size) > newSize {
		ip.din.Size = uint64(newSize)
		return fs.iupdate(t, ip)
	}
	return nil
}

// wbChunk is the data pages WriteBatch writes per operation.
const wbChunk = 32

// WriteBatch is the batched ->writepages path: the run is written in
// chunks bounded by the per-operation credit, straight from the page
// buffers — which the kernel has given up, so whole blocks of direct data
// are handed to the device, not copied. ext4 exposes it as
// kernel.BatchWriter; Type does not, the C-Kernel's one-page WritePage
// being the paper's Figure 4 mechanism.
func (fs *FS) WriteBatch(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	for _, p := range pages {
		if len(p) != fsapi.PageSize {
			return fsapi.ErrInvalid
		}
	}
	ip := fs.iget(uint32(ino))
	defer fs.iput(t, ip, false)
	for start := 0; start < len(pages); start += wbChunk {
		end := min(start+wbChunk, len(pages))
		off := (pg + int64(start)) * fsapi.PageSize
		if off >= newSize {
			return nil
		}
		total := min(int64(end-start)*fsapi.PageSize, newSize-off)
		fs.beginOp(t)
		if err := fs.iload(t, ip); err != nil {
			_ = fs.endOp(t)
			return err
		}
		_, err := fs.writev(t, ip, off, pages[start:end], total, true)
		if e := fs.endOp(t); err == nil {
			err = e
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Fsync implements kernel.FileSystem.
func (fs *FS) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	return fs.log.sync(fs, t)
}

// Sync implements kernel.FileSystem.
func (fs *FS) Sync(t *kernel.Task) error { return fs.log.sync(fs, t) }

// StatFS implements kernel.FileSystem.
func (fs *FS) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	sb := &fs.super
	var freeBlocks int64
	for b := sb.DataStart; b < sb.Size; {
		base := (b / layout.BitsPerBlock) * layout.BitsPerBlock
		end := base + layout.BitsPerBlock
		if end > sb.Size {
			end = sb.Size
		}
		bh, err := fs.bc.Get(t, int(sb.BitmapBlock(b)))
		if err != nil {
			return fsapi.FSStat{}, err
		}
		data := bh.Data()
		for cur := b; cur < end; cur++ {
			bit := cur - base
			if data[bit/8]&(1<<(bit%8)) == 0 {
				freeBlocks++
			}
		}
		_ = bh.Release()
		b = end
	}
	return fsapi.FSStat{
		TotalBlocks: int64(sb.NBlocks),
		FreeBlocks:  freeBlocks,
		TotalInodes: int64(sb.NInodes),
	}, nil
}

// Unmount implements kernel.FileSystem.
func (fs *FS) Unmount(t *kernel.Task) error { return fs.log.sync(fs, t) }
