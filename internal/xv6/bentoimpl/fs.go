package bentoimpl

import (
	"encoding/json"
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
)

// writeChunkBlocks is the data blocks per write transaction; with inode,
// bitmap, and indirect overhead they stay within layout.MaxOpBlocks.
const writeChunkBlocks = 32

// Config parameterizes the file system as Bento and the FUSE daemon
// mount it (New): xv6's per-operation log and directory scan.
type Config struct {
	// Policy selects commit durability (see SyncPolicy).
	Policy SyncPolicy
	// DataBypass routes regular-file contents around the buffer cache:
	// data blocks move between the device and the pages above via
	// BReadDirect/BWriteDirect and are neither cached here nor journaled,
	// so each byte of file data is cached exactly once (in the page
	// cache) and the log carries metadata only. Superblocks, bitmaps,
	// inodes, directories, indirect blocks, and the log itself keep
	// going through sb_bread. Off, the original journal-everything xv6
	// discipline applies (the crash-recovery tests run that way). It
	// needs a disk with the direct path, a bentoks.DirectDisk: Init
	// fails with fsapi.ErrInvalid on one without (the FUSE daemon's).
	DataBypass bool
}

// Mechanisms are what a mount fixes about the file system besides its
// disk: Bento's (New) or the C-Kernel's and ext4's (Mount).
type Mechanisms struct {
	// Name names the log and prefixes the file system's errors.
	Name string
	// Journal is when a transaction commits: journal.PerOp or
	// journal.Compound.
	Journal journal.Policy
	// Dirs is how a name is found in a directory: ScanDirs or IndexedDirs.
	Dirs Dirs
	// Barriers orders journal commits and recovery with device FLUSHes.
	Barriers bool
	// DataBypass routes regular-file contents around the disk's cache and
	// the journal (see Config.DataBypass).
	DataBypass bool
}

// FS is the xv6 file system over a bentoks.Disk.
type FS struct {
	cfg  Config // New's: what a live upgrade builds the replacement from
	mech Mechanisms
	sb   bentoks.Disk
	// direct is sb as a bentoks.DirectDisk, set with DataBypass (which
	// attach refuses without one) and nil otherwise.
	direct bentoks.DirectDisk
	// lender is sb as a bentoks.BlockLender, nil when it is not one: it
	// lets journaled file data be lent as well as direct data.
	lender bentoks.BlockLender
	super  layout.Superblock
	log    *journal.Log
	itab   itable
	alloc  allocator
}

var (
	_ core.FileSystem = (*FS)(nil)
	_ core.Upgradable = (*FS)(nil)
	_ core.PageLender = (*FS)(nil)
	_ core.PageWriter = (*FS)(nil)
)

// New creates an unmounted Bento instance; core.Register's factory calls
// it.
func New(cfg Config) *FS {
	fs := newFS(Mechanisms{
		Name:       "xv6",
		Journal:    journal.PerOp(),
		Dirs:       ScanDirs(),
		Barriers:   cfg.Policy == PolicyFlush,
		DataBypass: cfg.DataBypass,
	})
	fs.cfg = cfg
	return fs
}

func newFS(m Mechanisms) *FS {
	return &FS{mech: m, itab: itable{entries: make(map[uint32]*Inode)}}
}

// Mount mounts the file system with geometry super, read by the caller,
// on disk under m, replaying a committed transaction the log still
// holds: the C-Kernel's and ext4's mount.
func Mount(t *kernel.Task, disk bentoks.Disk, super layout.Superblock, m Mechanisms) (*FS, error) {
	fs := newFS(m)
	if err := fs.attach(t, disk, super); err != nil {
		return nil, err
	}
	return fs, nil
}

// RegisterWith installs the xv6-Bento module into kernel k under name.
func RegisterWith(k *kernel.Kernel, name string, cfg Config) error {
	return core.Register(k, name, func() core.FileSystem { return New(cfg) })
}

// Config returns the configuration a Bento instance was built with. A
// live upgrade builds its replacement from it, so the swap keeps the
// mount's data path and durability.
func (fs *FS) Config() Config { return fs.cfg }

// BentoName implements core.FileSystem.
func (fs *FS) BentoName() string { return "xv6-bento" }

// Log exposes the write-ahead log (benchmark statistics).
func (fs *FS) Log() *journal.Log { return fs.log }

// Super returns the parsed superblock geometry.
func (fs *FS) Super() layout.Superblock { return fs.super }

// Init implements core.FileSystem: read the superblock through sb, then
// attach.
func (fs *FS) Init(t *kernel.Task, sb bentoks.Disk) error {
	super, err := readSuper(t, sb)
	if err != nil {
		return err
	}
	return fs.attach(t, sb, super)
}

// attach serves the file system with geometry super from sb, recovering
// the log (crash consistency) before serving anything.
func (fs *FS) attach(t *kernel.Task, sb bentoks.Disk, super layout.Superblock) error {
	fs.sb = sb
	fs.lender, _ = sb.(bentoks.BlockLender)
	if fs.mech.DataBypass {
		var ok bool
		if fs.direct, ok = sb.(bentoks.DirectDisk); !ok {
			return fmt.Errorf("%s: DataBypass on a disk without a direct path: %w", fs.mech.Name, fsapi.ErrInvalid)
		}
	}
	if int(super.Size) > sb.Blocks() {
		return fmt.Errorf("%s: superblock claims %d blocks, device has %d: %w",
			fs.mech.Name, super.Size, sb.Blocks(), fsapi.ErrCorrupt)
	}
	fs.super = super
	fs.log = journal.New(fs.mech.Name, &logDisk{sb}, super, fs.mech.Journal, fs.mech.Barriers)
	fs.alloc.blockRotor = super.DataStart
	fs.alloc.inodeRotor = 2
	return fs.log.Recover(t)
}

// readSuper reads and decodes the superblock.
func readSuper(t *kernel.Task, sb bentoks.Disk) (super layout.Superblock, err error) {
	hdr, err := sb.BRead(t, 1)
	if err != nil {
		return super, err
	}
	defer drop(hdr, &err)
	data, err := hdr.Data()
	if err != nil {
		return super, err
	}
	return layout.DecodeSuperblock(data)
}

// Destroy implements core.FileSystem.
func (fs *FS) Destroy(t *kernel.Task) error { return fs.log.Drain(t) }

// SyncFS implements core.FileSystem: everything mutated goes through the
// log, so a forced commit makes the file system durable (plus a FLUSH
// under PolicyFlush, handled inside the commit).
func (fs *FS) SyncFS(t *kernel.Task) error { return fs.log.Sync(t) }

// Fsync implements core.FileSystem. xv6's log gives whole-file-system
// durability, so fsync degenerates to a forced commit — the behaviour the
// paper's varmail analysis relies on ("on all three versions the fsyncs
// take up the majority of the runtime").
func (fs *FS) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	return fs.log.Sync(t)
}

// dataDirect reports whether ip's contents take the buffer-cache
// bypass: regular-file data only, and only when the mount runs with
// DataBypass. Directory contents are metadata and stay on sb_bread.
// ip is loaded.
func (fs *FS) dataDirect(ip *Inode) bool {
	return fs.mech.DataBypass && ip.din.Type == layout.TypeFile
}

// iputOutside drops an inode reference outside any transaction. The
// common case (the inode stays linked or referenced) costs nothing; only
// when the drop must free the inode does it open a transaction — so pure
// read paths never contend on the log.
func (fs *FS) iputOutside(t *kernel.Task, ip *Inode) (err error) {
	if err := ip.iput(t, false); err != errNeedTxn {
		return err
	}
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)
	return ip.iput(t, true)
}

// Lookup implements core.FileSystem.
func (fs *FS) Lookup(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	dp := fs.iget(uint32(parent))
	defer fs.iputOutside(t, dp)
	if err := dp.iload(t); err != nil {
		return fsapi.Stat{}, err
	}
	inum, _, err := fs.dirlookup(t, dp, name, false)
	if err != nil {
		return fsapi.Stat{}, err
	}
	ip := fs.iget(inum)
	defer fs.iputOutside(t, ip)
	if err := ip.iload(t); err != nil {
		return fsapi.Stat{}, err
	}
	return ip.stat(), nil
}

// GetAttr implements core.FileSystem.
func (fs *FS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	if err := ip.iload(t); err != nil {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	return ip.stat(), nil
}

// SetAttr implements core.FileSystem (truncate). Shrinking frees the tail
// in bounded transactions; growing just records the new size (holes read
// as zeros).
func (fs *FS) SetAttr(t *kernel.Task, ino fsapi.Ino, size int64) (err error) {
	if size < 0 || size > layout.MaxFileSize {
		return fsapi.ErrInvalid
	}
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	if err := ip.iload(t); err != nil {
		return err
	}
	if ip.din.Type == layout.TypeDir {
		return fsapi.ErrIsDir
	}
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)
	if size == 0 {
		return ip.itrunc(t)
	}
	// Partial truncate: free whole blocks past the new end, zero the tail
	// of the final partial block, update the size.
	old := int64(ip.din.Size)
	if size < old {
		firstDead := (size + layout.BlockSize - 1) / layout.BlockSize
		lastOld := (old + layout.BlockSize - 1) / layout.BlockSize
		for bn := firstDead; bn < lastOld; bn++ {
			blk, _, err := ip.bmap(t, uint64(bn), false)
			if err != nil {
				return err
			}
			if blk == 0 {
				continue
			}
			if err := fs.bfree(t, blk); err != nil {
				return err
			}
			if err := ip.clearMapping(t, uint64(bn)); err != nil {
				return err
			}
		}
		if size%layout.BlockSize != 0 {
			blk, _, err := ip.bmap(t, uint64(size/layout.BlockSize), false)
			if err != nil {
				return err
			}
			if blk != 0 {
				if err := fs.zeroTail(t, ip, blk, size%layout.BlockSize); err != nil {
					return err
				}
			}
		}
	}
	ip.din.Size = uint64(size)
	return ip.iupdate(t)
}

// zeroTail zeroes block blk of ip from byte off to its end: on the device
// for data that takes the bypass (a direct read-modify-write, never
// through the cache or log), through the log otherwise.
func (fs *FS) zeroTail(t *kernel.Task, ip *Inode, blk uint32, off int64) (err error) {
	if fs.dataDirect(ip) {
		tail := make([]byte, layout.BlockSize)
		if err := fs.direct.BReadDirect(t, int(blk), tail); err != nil {
			return err
		}
		clear(tail[off:])
		done, err := fs.direct.BWriteDirect(t, int(blk), tail)
		if err != nil {
			return err
		}
		t.WaitIO("direct-write", done)
		return nil
	}
	bh, err := fs.sb.BRead(t, int(blk))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	clear(data[off:])
	return fs.logWrite(t, bh)
}

// Create implements core.FileSystem.
func (fs *FS) Create(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.createNode(t, parent, name, layout.TypeFile)
}

// Mkdir implements core.FileSystem.
func (fs *FS) Mkdir(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	return fs.createNode(t, parent, name, layout.TypeDir)
}

func (fs *FS) createNode(t *kernel.Task, parent fsapi.Ino, name string, typ uint16) (st fsapi.Stat, err error) {
	if name == "" || name == "." || name == ".." {
		return fsapi.Stat{}, fsapi.ErrInvalid
	}
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)

	dp := fs.iget(uint32(parent))
	defer fs.iputRef(t, dp)
	if err := dp.iload(t); err != nil {
		return fsapi.Stat{}, err
	}
	if dp.din.Type != layout.TypeDir {
		return fsapi.Stat{}, fsapi.ErrNotDir
	}
	if _, _, err := fs.dirlookup(t, dp, name, false); err == nil {
		return fsapi.Stat{}, fsapi.ErrExist
	}

	ip, err := fs.ialloc(t, typ)
	if err != nil {
		return fsapi.Stat{}, err
	}
	defer fs.iputRef(t, ip)
	if typ == layout.TypeDir {
		ip.din.Nlink = 2 // "." plus the entry in the parent
	} else {
		ip.din.Nlink = 1
	}
	if err := ip.iupdate(t); err != nil {
		return fsapi.Stat{}, err
	}
	if typ == layout.TypeDir {
		if err := fs.dirlink(t, ip, ".", ip.inum); err != nil {
			return fsapi.Stat{}, err
		}
		if err := fs.dirlink(t, ip, "..", dp.inum); err != nil {
			return fsapi.Stat{}, err
		}
		dp.din.Nlink++ // the child's ".."
		if err := dp.iupdate(t); err != nil {
			return fsapi.Stat{}, err
		}
	}
	if err := fs.dirlink(t, dp, name, ip.inum); err != nil {
		return fsapi.Stat{}, err
	}
	return ip.stat(), nil
}

// iputRef drops a reference while a transaction is already open.
func (fs *FS) iputRef(t *kernel.Task, ip *Inode) { _ = ip.iput(t, true) }

// Unlink implements core.FileSystem.
func (fs *FS) Unlink(t *kernel.Task, parent fsapi.Ino, name string) error {
	return fs.removeNode(t, parent, name, false)
}

// Rmdir implements core.FileSystem.
func (fs *FS) Rmdir(t *kernel.Task, parent fsapi.Ino, name string) error {
	return fs.removeNode(t, parent, name, true)
}

func (fs *FS) removeNode(t *kernel.Task, parent fsapi.Ino, name string, wantDir bool) (err error) {
	if name == "." || name == ".." {
		return fsapi.ErrInvalid
	}
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)

	dp := fs.iget(uint32(parent))
	defer fs.iputRef(t, dp)
	if err := dp.iload(t); err != nil {
		return err
	}

	inum, off, err := fs.dirlookup(t, dp, name, true)
	if err != nil {
		return err
	}
	ip := fs.iget(inum)
	defer fs.iputRef(t, ip)
	if err := ip.iload(t); err != nil {
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
		empty, err := fs.mech.Dirs.empty(t, ip)
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
		ip.din.Nlink -= 2 // its "." and the parent entry
		dp.din.Nlink--    // its ".."
		fs.mech.Dirs.removed(ip.inum)
		if err := dp.iupdate(t); err != nil {
			return err
		}
	} else {
		ip.din.Nlink--
	}
	return ip.iupdate(t)
}

// Rename implements core.FileSystem. Original xv6 has no rename; this
// follows POSIX for same-type targets within one file system, journaled
// as a single transaction.
func (fs *FS) Rename(t *kernel.Task, oldParent fsapi.Ino, oldName string, newParent fsapi.Ino, newName string) (err error) {
	if oldName == "." || oldName == ".." || newName == "." || newName == ".." {
		return fsapi.ErrInvalid
	}
	if len(newName) > layout.MaxNameLen {
		return fsapi.ErrNameTooLong
	}
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)

	odp := fs.iget(uint32(oldParent))
	defer fs.iputRef(t, odp)
	var ndp *Inode
	if newParent == oldParent {
		ndp = odp
		if err := odp.iload(t); err != nil {
			return err
		}
	} else {
		ndp = fs.iget(uint32(newParent))
		defer fs.iputRef(t, ndp)
		// Load parents in inum order (xv6's lock order; the order the
		// loads touch the buffer cache is part of the baseline).
		first, second := odp, ndp
		if ndp.inum < odp.inum {
			first, second = ndp, odp
		}
		if err := first.iload(t); err != nil {
			return err
		}
		if err := second.iload(t); err != nil {
			return err
		}
	}

	srcInum, srcOff, err := fs.dirlookup(t, odp, oldName, true)
	if err != nil {
		return err
	}
	if oldParent == newParent && oldName == newName {
		return nil
	}
	src := fs.iget(srcInum)
	defer fs.iputRef(t, src)
	if err := src.iload(t); err != nil {
		return err
	}
	srcIsDir := src.din.Type == layout.TypeDir

	// Remove an existing target if compatible.
	if tgtInum, tgtOff, err := fs.dirlookup(t, ndp, newName, true); err == nil {
		tgt := fs.iget(tgtInum)
		defer fs.iputRef(t, tgt)
		if err := tgt.iload(t); err != nil {
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
			empty, err := fs.mech.Dirs.empty(t, tgt)
			if err != nil {
				return err
			}
			if !empty {
				return fsapi.ErrNotEmpty
			}
			tgt.din.Nlink -= 2
			ndp.din.Nlink--
			fs.mech.Dirs.removed(tgt.inum)
		} else {
			tgt.din.Nlink--
		}
		if err := tgt.iupdate(t); err != nil {
			return err
		}
		if err := fs.dirunlink(t, ndp, newName, tgtOff); err != nil {
			return err
		}
	}

	if err := fs.dirlink(t, ndp, newName, srcInum); err != nil {
		return err
	}
	if err := fs.dirunlink(t, odp, oldName, srcOff); err != nil {
		return err
	}
	if srcIsDir && oldParent != newParent {
		// Rewrite "..", fix parent link counts.
		_, dotdotOff, err := fs.dirlookup(t, src, "..", true)
		if err != nil {
			return err
		}
		buf := src.dent[:]
		if err := layout.EncodeDirent(layout.Dirent{Ino: ndp.inum, Name: ".."}, buf); err != nil {
			return err
		}
		if _, err := src.writei(t, dotdotOff, buf); err != nil {
			return err
		}
		fs.mech.Dirs.linked(src.inum, "..", ndp.inum)
		odp.din.Nlink--
		ndp.din.Nlink++
	}
	if err := odp.iupdate(t); err != nil {
		return err
	}
	if ndp != odp {
		return ndp.iupdate(t)
	}
	return nil
}

// Link implements core.FileSystem.
func (fs *FS) Link(t *kernel.Task, ino fsapi.Ino, parent fsapi.Ino, name string) (st fsapi.Stat, err error) {
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)

	ip := fs.iget(uint32(ino))
	defer fs.iputRef(t, ip)
	if err := ip.iload(t); err != nil {
		return fsapi.Stat{}, err
	}
	if ip.din.Type == layout.TypeDir {
		return fsapi.Stat{}, fsapi.ErrPerm
	}
	ip.din.Nlink++
	if err := ip.iupdate(t); err != nil {
		ip.din.Nlink--
		return fsapi.Stat{}, err
	}
	st = ip.stat()

	dp := fs.iget(uint32(parent))
	defer fs.iputRef(t, dp)
	if err := dp.iload(t); err != nil {
		return fsapi.Stat{}, err
	}
	if err := fs.dirlink(t, dp, name, uint32(ino)); err != nil {
		// Roll back the link count.
		ip.din.Nlink--
		_ = ip.iupdate(t)
		return fsapi.Stat{}, err
	}
	return st, nil
}

// Open implements core.FileSystem: hold an in-core reference for the
// lifetime of the open file, so unlinked-but-open files survive until
// Release (xv6's iput semantics).
func (fs *FS) Open(t *kernel.Task, ino fsapi.Ino) error {
	ip := fs.iget(uint32(ino))
	if err := ip.iload(t); err != nil {
		_ = fs.iputOutside(t, ip)
		return fsapi.ErrNotExist
	}
	return nil
}

// Release implements core.FileSystem.
func (fs *FS) Release(t *kernel.Task, ino fsapi.Ino) error {
	ip, ok := fs.itab.entries[uint32(ino)]
	if !ok {
		return nil
	}
	return fs.iputOutside(t, ip)
}

// Read implements core.FileSystem.
func (fs *FS) Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	if err := ip.iload(t); err != nil {
		return 0, err
	}
	return ip.readi(t, off, buf)
}

// CanLendPage implements core.PageLender: a page is lent when it is one
// whole block of a file's data — the inode is in core (it is, for any
// file the kernel has open), the page lies wholly inside the file, and
// the data either takes the bypass or sits in a disk cache that lends
// (a bentoks.BlockLender).
func (fs *FS) CanLendPage(ino fsapi.Ino, pg int64) bool {
	ip, ok := fs.itab.entries[uint32(ino)]
	return ok && ip.valid && ip.din.Type == layout.TypeFile &&
		(fs.mech.DataBypass || fs.lender != nil) && (pg+1)*fsapi.PageSize <= int64(ip.din.Size)
}

// LendPage implements core.PageLender: Read of that page, with readi's
// bmap and block read, by reference — BBorrowDirect in place of
// BReadDirect, BReadView in place of ReadBlockRange.
func (fs *FS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	if err := ip.iload(t); err != nil { // in core already: free
		return nil, err
	}
	blk, _, err := ip.bmap(t, uint64(pg), false)
	if err != nil {
		return nil, err
	}
	var view []byte
	switch {
	case blk == 0:
	case fs.dataDirect(ip):
		view, err = fs.direct.BBorrowDirect(t, int(blk))
	default:
		view, err = fs.lender.BReadView(t, int(blk))
	}
	if view == nil && err == nil {
		view = make([]byte, fsapi.PageSize) // a hole, or mapped and never written
	}
	return view, err
}

// Write implements core.FileSystem, chunking the write into bounded
// transactions exactly as xv6's sys_write does.
func (fs *FS) Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	var done int
	for done < len(data) {
		n := min(len(data)-done, writeChunkBlocks*layout.BlockSize)
		w, err := fs.writeChunk(t, ip, off+int64(done), [][]byte{data[done : done+n]}, int64(n), false)
		done += w
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// WritePages implements core.PageWriter: Write, chunked the same way, with
// the kernel's page buffers as the source. They have been given up, so
// whole blocks of direct data are handed to the device instead of copied.
func (fs *FS) WritePages(t *kernel.Task, ino fsapi.Ino, off int64, pages [][]byte, total int64) (int, error) {
	ip := fs.iget(uint32(ino))
	defer fs.iputOutside(t, ip)
	var done int64
	for done < total {
		n := min(total-done, writeChunkBlocks*layout.BlockSize)
		w, err := fs.writeChunk(t, ip, off+done, pages[done/fsapi.PageSize:], n, true)
		done += int64(w)
		if err != nil {
			return int(done), err
		}
	}
	return int(done), nil
}

// writeChunk writes one transaction's worth of a write: the first n bytes
// of src at off.
func (fs *FS) writeChunk(t *kernel.Task, ip *Inode, off int64, src [][]byte, n int64, owned bool) (w int, err error) {
	fs.log.BeginOp(t, layout.MaxOpBlocks)
	defer fs.log.EndOp(t, layout.MaxOpBlocks, &err)
	if err := ip.iload(t); err != nil {
		return 0, err
	}
	return ip.writev(t, off, src, n, owned)
}

// ReadDir implements core.FileSystem.
func (fs *FS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	dp := fs.iget(uint32(dir))
	defer fs.iputOutside(t, dp)
	if err := dp.iload(t); err != nil {
		return nil, err
	}
	return fs.readDirEntries(t, dp)
}

// StatFS implements core.FileSystem (free counts come from a bitmap and
// inode-table scan; statfs is rare, so the scan is acceptable).
func (fs *FS) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	sb := &fs.super
	var freeBlocks int64
	for b := sb.DataStart; b < sb.Size; b = (b/layout.BitsPerBlock + 1) * layout.BitsPerBlock {
		n, err := fs.freeBits(t, b, sb.Size)
		if err != nil {
			return fsapi.FSStat{}, err
		}
		freeBlocks += n
	}
	var freeInodes int64
	for inum := uint32(1); inum < sb.NInodes; inum++ {
		free, err := fs.inodeFree(t, inum)
		if err != nil {
			return fsapi.FSStat{}, err
		}
		if free {
			freeInodes++
		}
	}
	return fsapi.FSStat{
		TotalBlocks: int64(sb.NBlocks),
		FreeBlocks:  freeBlocks,
		TotalInodes: int64(sb.NInodes),
		FreeInodes:  freeInodes,
	}, nil
}

// freeBits counts the free blocks of [lo, hi) in the one bitmap block
// that maps lo.
func (fs *FS) freeBits(t *kernel.Task, lo, hi uint32) (n int64, err error) {
	base := (lo / layout.BitsPerBlock) * layout.BitsPerBlock
	end := min(base+layout.BitsPerBlock, hi)
	bh, err := fs.sb.BRead(t, int(fs.super.BitmapBlock(lo)))
	if err != nil {
		return 0, err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return 0, err
	}
	for cur := lo; cur < end; cur++ {
		bit := cur - base
		if data[bit/8]&(1<<(bit%8)) == 0 {
			n++
		}
	}
	return n, nil
}

// inodeFree reports whether the inode table holds inum free.
func (fs *FS) inodeFree(t *kernel.Task, inum uint32) (free bool, err error) {
	bh, err := fs.sb.BRead(t, int(fs.super.InodeBlock(inum)))
	if err != nil {
		return false, err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return false, err
	}
	return layout.DinodeType(data[layout.InodeOffset(inum):]) == layout.TypeFree, nil
}

// transferState is the serialized in-memory state moved across an online
// upgrade (§4.8): allocation rotors (performance hints that would
// otherwise be rebuilt by scanning) and the commit count.
type transferState struct {
	BlockRotor uint32
	InodeRotor uint32
	Commits    int64
}

// PrepareTransfer implements core.Upgradable: flush and drain the log,
// then serialize in-memory state for the replacement instance.
func (fs *FS) PrepareTransfer(t *kernel.Task) ([]byte, error) {
	if err := fs.log.Drain(t); err != nil {
		return nil, err
	}
	st := transferState{
		BlockRotor: fs.alloc.blockRotor,
		InodeRotor: fs.alloc.inodeRotor,
		Commits:    fs.log.Commits(),
	}
	return json.Marshal(st)
}

// RestoreTransfer implements core.Upgradable.
func (fs *FS) RestoreTransfer(t *kernel.Task, state []byte) error {
	var st transferState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("xv6: bad transfer state: %w", err)
	}
	fs.alloc.blockRotor = st.BlockRotor
	fs.alloc.inodeRotor = st.InodeRotor
	fs.log.SetCommits(st.Commits)
	return nil
}
