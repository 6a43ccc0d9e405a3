package kernel

import (
	"fmt"

	"bento/internal/fsapi"
	"bento/internal/trace"
)

// File is an open file description (struct file): a position, flags, and a
// reference to the in-core inode.
type File struct {
	m     *Mount
	vn    *vnode
	flags int

	pos    int64
	closed bool
}

// chargeSyscall bills the fixed cost of entering and leaving the kernel
// plus one VFS dispatch, and returns the virtual time at entry so the
// caller can close a syscall span over the whole operation.
func (m *Mount) chargeSyscall(t *Task) int64 {
	start := t.Clk.NowNS()
	t.Charge(2*m.model.SyscallCrossing + m.model.VFSDispatch)
	return start
}

// Open opens path. With fsapi.OCreate the file is created if missing;
// with fsapi.OExcl creation fails if it exists; with fsapi.OTrunc the file
// is truncated to zero length.
func (m *Mount) Open(t *Task, path string, flags int) (*File, error) {
	defer t.endSyscall("open", m.chargeSyscall(t))

	st, err := m.Resolve(t, path)
	switch {
	case err == nil:
		if flags&OAccWrite != 0 && st.Type == fsapi.TypeDir {
			return nil, fsapi.ErrIsDir
		}
		if flags&fsapi.OCreate != 0 && flags&fsapi.OExcl != 0 {
			return nil, fsapi.ErrExist
		}
	case flags&fsapi.OCreate != 0:
		dir, name, perr := m.ResolveParent(t, path)
		if perr != nil {
			return nil, perr
		}
		st, err = m.fs.Create(t, dir, name)
		if err != nil {
			return nil, err
		}
		m.dcachePut(dir, name, st.Ino)
	default:
		return nil, err
	}

	vn := m.vnodeFromStat(st)
	if err := m.fs.Open(t, st.Ino); err != nil {
		return nil, err
	}
	vn.opens++
	if flags&fsapi.OTrunc != 0 && vn.ftype == fsapi.TypeFile {
		if err := vn.truncate(t, 0); err != nil {
			vn.opens--
			_ = m.fs.Release(t, st.Ino)
			return nil, err
		}
	}
	return &File{m: m, vn: vn, flags: flags}, nil
}

// OAccWrite masks the flag bits that request write access.
const OAccWrite = fsapi.OWronly | fsapi.ORdwr | fsapi.OAppend | fsapi.OTrunc

// Close releases the open file.
func (m *Mount) Close(t *Task, f *File) error {
	defer t.endSyscall("close", m.chargeSyscall(t))
	if f.closed {
		return fsapi.ErrBadFD
	}
	f.closed = true

	vn := f.vn
	vn.opens--
	drop := vn.opens == 0 && vn.unlinked

	if err := m.fs.Release(t, vn.ino); err != nil {
		return err
	}
	if drop {
		m.dropVnode(vn)
	}
	return nil
}

// Stat returns the attributes of path. Sizes reflect in-core state (dirty
// pages included), matching Linux semantics.
func (m *Mount) Stat(t *Task, path string) (fsapi.Stat, error) {
	defer t.endSyscall("stat", m.chargeSyscall(t))
	st, err := m.Resolve(t, path)
	if err != nil {
		return fsapi.Stat{}, err
	}
	if vn, ok := m.vnodes[st.Ino]; ok {
		st.Size = vn.size
	}
	return st, nil
}

// FStat returns the attributes of an open file.
func (f *File) FStat(t *Task) (fsapi.Stat, error) {
	defer t.endSyscall("fstat", f.m.chargeSyscall(t))
	st, err := f.m.fs.GetAttr(t, f.vn.ino)
	if err != nil {
		return fsapi.Stat{}, err
	}
	st.Size = f.vn.size
	return st, nil
}

// Size reports the in-core file size without a syscall charge (test
// helper).
func (f *File) Size() int64 { return f.vn.size }

// Ino reports the file's inode number.
func (f *File) Ino() fsapi.Ino { return f.vn.ino }

// Read reads from the current position, advancing it. It returns the
// number of bytes read; 0 at EOF.
func (f *File) Read(t *Task, buf []byte) (int, error) {
	pos := f.pos
	n, err := f.PRead(t, buf, pos)
	if n > 0 {
		f.pos = pos + int64(n)
	}
	return n, err
}

// PRead reads len(buf) bytes at offset off through the page cache.
func (f *File) PRead(t *Task, buf []byte, off int64) (int, error) {
	m := f.m
	defer t.endSyscall("pread", m.chargeSyscall(t))
	if f.vn.ftype == fsapi.TypeDir {
		return 0, fsapi.ErrIsDir
	}
	if off < 0 {
		return 0, fsapi.ErrInvalid
	}

	vn := f.vn
	if off >= vn.size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > vn.size {
		want = vn.size - off
	}
	var done int64
	for done < want {
		idx := (off + done) / fsapi.PageSize
		pgOff := (off + done) % fsapi.PageSize
		n := int64(fsapi.PageSize) - pgOff
		if n > want-done {
			n = want - done
		}
		t.Charge(m.model.PageCacheLookup)
		pg, ok := vn.pc.Peek(idx)
		if ok {
			t.rec.Add(trace.CtrPageHits, 1)
			pg.lastUse = m.tick()
			if r := pg.readyAt; r != 0 {
				// The page is here courtesy of read-ahead; a reader
				// that catches up with the pipeline waits for its
				// asynchronous device read to complete.
				t.waitSpan(trace.CatCache, "ra-wait", r)
			}
		} else {
			var err error
			pg, err = vn.loadPage(t, idx)
			if err != nil {
				return int(done), err
			}
		}
		t.Charge(m.model.Copy(int(n)))
		copy(buf[done:done+n], pg.data[pgOff:pgOff+n])
		done += n
	}
	if m.iod != nil && done > 0 {
		// Tell the read-ahead state machine which pages this request
		// covered; a sequential stream schedules asynchronous fills
		// ahead of itself.
		vn.readAhead(t, off/fsapi.PageSize, (off+done-1)/fsapi.PageSize)
	}
	return int(done), nil
}

// Write writes at the current position (or at EOF with O_APPEND),
// advancing it.
func (f *File) Write(t *Task, data []byte) (int, error) {
	pos := f.pos
	if f.flags&fsapi.OAppend != 0 {
		pos = f.vn.size
	}
	n, err := f.PWrite(t, data, pos)
	if n > 0 {
		f.pos = pos + int64(n)
	}
	return n, err
}

// PWrite writes data at offset off through the page cache, marking pages
// dirty. If the write pushes the mount past its dirty budget the caller
// performs write-back of this file before returning (balance_dirty_pages).
func (f *File) PWrite(t *Task, data []byte, off int64) (int, error) {
	m := f.m
	defer t.endSyscall("pwrite", m.chargeSyscall(t))
	if f.vn.ftype == fsapi.TypeDir {
		return 0, fsapi.ErrIsDir
	}
	if off < 0 {
		return 0, fsapi.ErrInvalid
	}

	vn := f.vn
	var done int64
	want := int64(len(data))
	overLimit := false
	for done < want {
		idx := (off + done) / fsapi.PageSize
		pgOff := (off + done) % fsapi.PageSize
		n := int64(fsapi.PageSize) - pgOff
		if n > want-done {
			n = want - done
		}
		t.Charge(m.model.PageCacheLookup)
		var pg *page
		var err error
		if n == fsapi.PageSize {
			// Full-page overwrite: no read-modify-write needed.
			pg = vn.pageForOverwrite(idx)
		} else {
			pg, err = vn.loadPage(t, idx)
			if err != nil {
				return int(done), err
			}
			if pg.shared {
				m.unshare(pg, true) // the rest of the page survives the write
			}
		}
		t.Charge(m.model.Copy(int(n)))
		copy(pg.data[pgOff:pgOff+n], data[done:done+n])
		if vn.markDirty(idx) {
			overLimit = true
		}
		done += n
		if end := off + done; end > vn.size {
			vn.size = end
		}
	}

	var wbErr error
	if overLimit && m.iod == nil {
		// No background flusher: the dirtier performs write-back of the
		// file it is writing, the pre-flusher balance_dirty_pages shape.
		wbErr = vn.writeback(t)
	}
	if wbErr == nil && m.iod != nil {
		// Background flusher: crossing the background threshold wakes
		// it; the hard limit throttles the writer against it.
		wbErr = m.balanceDirty(t)
	}
	return int(done), wbErr
}

// pageForOverwrite returns the page at idx without reading from disk,
// because the caller is about to overwrite all PageSize bytes of it (a
// fresh page is handed out with unspecified contents for that reason).
func (vn *vnode) pageForOverwrite(idx int64) *page {
	if pg, ok := vn.pc.Peek(idx); ok {
		vn.m.k.rec.Add(trace.CtrPageHits, 1)
		pg.lastUse = vn.m.tick()
		// A full overwrite discards whatever a pending read-ahead fill
		// would have delivered, so later readers owe no wait for it;
		// the fill's device booking stays (the queue really was busy).
		pg.readyAt = 0
		if pg.shared {
			vn.m.unshare(pg, false)
		}
		return pg
	}
	vn.m.k.rec.Add(trace.CtrPageMisses, 1)
	pg := vn.m.getPage(false)
	vn.insert(idx, pg)
	return pg
}

// Seek sets the file position (whence semantics: 0=set, 1=cur, 2=end).
func (f *File) Seek(t *Task, off int64, whence int) (int64, error) {
	defer t.endSyscall("seek", f.m.chargeSyscall(t))
	var base int64
	switch whence {
	case 0:
		base = 0
	case 1:
		base = f.pos
	case 2:
		base = f.vn.size
	default:
		return 0, fsapi.ErrInvalid
	}
	np := base + off
	if np < 0 {
		return 0, fsapi.ErrInvalid
	}
	f.pos = np
	return np, nil
}

// FSync writes the file's dirty pages through the file system and asks the
// file system to make the file durable.
func (f *File) FSync(t *Task) error {
	defer t.endSyscall("fsync", f.m.chargeSyscall(t))
	if err := f.vn.writeback(t); err != nil {
		return err
	}
	return f.m.fs.Fsync(t, f.vn.ino, false)
}

// Truncate changes the file's size.
func (f *File) Truncate(t *Task, size int64) error {
	defer t.endSyscall("truncate", f.m.chargeSyscall(t))
	return f.vn.truncate(t, size)
}

// truncate implements truncation: drop affected cached pages, then tell
// the file system.
func (vn *vnode) truncate(t *Task, size int64) error {
	if size < 0 {
		return fsapi.ErrInvalid
	}
	firstDead := (size + fsapi.PageSize - 1) / fsapi.PageSize
	dirty := vn.pc.DirtyLen()
	vn.m.totalPages -= int64(vn.pc.RemoveFrom(firstDead, vn.m.putPageFn))
	vn.m.dirtyPages -= int64(dirty - vn.pc.DirtyLen())
	// Zero the cached tail of a now-partial page so stale bytes cannot
	// reappear if the file is re-extended.
	if size%fsapi.PageSize != 0 {
		if pg, ok := vn.pc.Peek(size / fsapi.PageSize); ok {
			if pg.shared {
				vn.m.unshare(pg, true)
			}
			clear(pg.data[size%fsapi.PageSize:])
		}
	}
	if err := vn.m.fs.SetSize(t, vn.ino, size); err != nil {
		return err
	}
	vn.size = size
	return nil
}

// Mkdir creates a directory at path.
func (m *Mount) Mkdir(t *Task, path string) error {
	defer t.endSyscall("mkdir", m.chargeSyscall(t))
	dir, name, err := m.ResolveParent(t, path)
	if err != nil {
		return err
	}
	st, err := m.fs.Mkdir(t, dir, name)
	if err != nil {
		return err
	}
	m.dcachePut(dir, name, st.Ino)
	return nil
}

// Unlink removes the file at path.
func (m *Mount) Unlink(t *Task, path string) error {
	defer t.endSyscall("unlink", m.chargeSyscall(t))
	dir, name, err := m.ResolveParent(t, path)
	if err != nil {
		return err
	}
	st, serr := m.fs.Lookup(t, dir, name)
	if err := m.fs.Unlink(t, dir, name); err != nil {
		return err
	}
	m.dcacheDrop(dir, name)
	if serr == nil {
		m.noteUnlinked(t, st.Ino)
	}
	return nil
}

// noteUnlinked marks the vnode for discard once closed if its link count
// reached zero, and drops it immediately when it is not open.
func (m *Mount) noteUnlinked(t *Task, ino fsapi.Ino) {
	vn, ok := m.vnodes[ino]
	if !ok {
		return
	}
	st, err := m.fs.GetAttr(t, ino)
	stillLinked := err == nil && st.Nlink > 0
	if stillLinked {
		return
	}
	vn.unlinked = true
	if vn.opens == 0 {
		m.dropVnode(vn)
	}
}

// Rmdir removes the empty directory at path.
func (m *Mount) Rmdir(t *Task, path string) error {
	defer t.endSyscall("rmdir", m.chargeSyscall(t))
	dir, name, err := m.ResolveParent(t, path)
	if err != nil {
		return err
	}
	if err := m.fs.Rmdir(t, dir, name); err != nil {
		return err
	}
	m.dcacheDrop(dir, name)
	return nil
}

// Rename moves oldPath to newPath (replacing a compatible target).
func (m *Mount) Rename(t *Task, oldPath, newPath string) error {
	defer t.endSyscall("rename", m.chargeSyscall(t))
	odir, oname, err := m.ResolveParent(t, oldPath)
	if err != nil {
		return err
	}
	ndir, nname, err := m.ResolveParent(t, newPath)
	if err != nil {
		return err
	}
	// If the rename replaces an existing target, its inode may become
	// orphaned: note it like Unlink does.
	tgt, tgtErr := m.fs.Lookup(t, ndir, nname)
	if err := m.fs.Rename(t, odir, oname, ndir, nname); err != nil {
		return err
	}
	m.dcacheDrop(odir, oname)
	m.dcacheDrop(ndir, nname)
	if tgtErr == nil {
		m.noteUnlinked(t, tgt.Ino)
	}
	return nil
}

// Link creates a hard link newPath referring to oldPath's inode.
func (m *Mount) Link(t *Task, oldPath, newPath string) error {
	defer t.endSyscall("link", m.chargeSyscall(t))
	st, err := m.Resolve(t, oldPath)
	if err != nil {
		return err
	}
	if st.Type == fsapi.TypeDir {
		return fsapi.ErrPerm
	}
	dir, name, err := m.ResolveParent(t, newPath)
	if err != nil {
		return err
	}
	if _, err := m.fs.Link(t, st.Ino, dir, name); err != nil {
		return err
	}
	m.dcachePut(dir, name, st.Ino)
	return nil
}

// ReadDir lists the directory at path.
func (m *Mount) ReadDir(t *Task, path string) ([]fsapi.DirEntry, error) {
	defer t.endSyscall("readdir", m.chargeSyscall(t))
	st, err := m.Resolve(t, path)
	if err != nil {
		return nil, err
	}
	if st.Type != fsapi.TypeDir {
		return nil, fsapi.ErrNotDir
	}
	return m.fs.ReadDir(t, st.Ino)
}

// Sync writes back all dirty pages and makes the file system durable.
func (m *Mount) Sync(t *Task) error {
	defer t.endSyscall("sync", m.chargeSyscall(t))
	if err := m.writebackAll(t); err != nil {
		return err
	}
	return m.fs.Sync(t)
}

// StatFS reports file-system usage.
func (m *Mount) StatFS(t *Task) (fsapi.FSStat, error) {
	defer t.endSyscall("statfs", m.chargeSyscall(t))
	return m.fs.StatFS(t)
}

// WriteFile is a convenience that creates/truncates path with data (tests,
// examples, workload setup).
func (m *Mount) WriteFile(t *Task, path string, data []byte) error {
	f, err := m.Open(t, path, fsapi.ORdwr|fsapi.OCreate|fsapi.OTrunc)
	if err != nil {
		return err
	}
	if _, err := f.Write(t, data); err != nil {
		_ = m.Close(t, f)
		return err
	}
	return m.Close(t, f)
}

// ReadFile is a convenience that reads all of path.
func (m *Mount) ReadFile(t *Task, path string) ([]byte, error) {
	f, err := m.Open(t, path, fsapi.ORdonly)
	if err != nil {
		return nil, err
	}
	defer m.Close(t, f)
	st, err := f.FStat(t)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := f.PRead(t, buf, 0)
	if err != nil {
		return nil, err
	}
	if int64(n) != st.Size {
		return buf[:n], fmt.Errorf("kernel: short read %d of %d: %w", n, st.Size, fsapi.ErrIO)
	}
	return buf, nil
}
