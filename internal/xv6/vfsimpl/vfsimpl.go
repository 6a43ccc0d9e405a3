// Package vfsimpl is the xv6 file system written directly against the
// simulated kernel's VFS interface — the Go rendering of the paper's C
// baseline ("C-Kernel" bars in every figure) — and, mounted with three
// other mechanisms, the ext4 comparator (internal/ext4).
//
// It shares the on-disk format (internal/xv6/layout) with the Bento
// version but is a separate implementation, as the paper's baselines
// were: it talks straight to the kernel buffer cache with no capability
// wrappers or ownership checking, and Type mounts it with only the
// single-page ->writepage write-back path (no batched writepages) — the
// two differences the paper identifies between the variants. The code is
// deliberately C-flavoured: flat functions over the same structs, with
// manual brelse bookkeeping.
//
// What a type fixes when it mounts the file system (Mechanisms) is all
// that separates the C-Kernel from ext4: the journal's commit policy
// (xv6's per-operation log with serial writes, or jbd2's compound
// transaction with batched submits), directory lookup (a dirent scan, or
// an in-memory index), the geometry and the buffer-cache size. ext4 also
// exposes WriteBatch as the batched ->writepages path.
package vfsimpl

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// Type registers the baseline with the kernel under Name.
type Type struct {
	TypeName string
	Cfg      Config
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
func (tt Type) Name() string {
	if tt.TypeName == "" {
		return "xv6vfs"
	}
	return tt.TypeName
}

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
	fs, err := New(t, dev, super, Mechanisms{
		Name:       "xv6vfs",
		Journal:    PerOpLog(),
		Dirs:       ScanDirs(),
		Barriers:   tt.Cfg.FlushCommits,
		DataBypass: tt.Cfg.DataBypass,
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// Mechanisms are what a file-system type fixes when it mounts FS: the
// C-Kernel's (Type) or ext4's. Barriers and DataBypass carry the type's
// Config in one meaning.
type Mechanisms struct {
	// Name prefixes the file system's errors.
	Name string
	// CacheBlocks is the buffer cache's capacity; 0 takes the kernel's
	// default.
	CacheBlocks int
	// Journal is when a transaction commits and how its blocks reach the
	// device: PerOpLog or Compound.
	Journal Journal
	// Dirs is how a name is found in a directory: ScanDirs or IndexedDirs.
	Dirs Dirs
	// Barriers orders journal commits and recovery with device FLUSHes.
	Barriers bool
	// DataBypass routes regular-file contents around the buffer cache
	// and the journal (see Config.DataBypass).
	DataBypass bool
}

// New mounts the file system with geometry super on dev, replaying a
// committed transaction the journal still holds.
func New(t *kernel.Task, dev *blockdev.Device, super layout.Superblock, m Mechanisms) (*FS, error) {
	fs := &FS{
		name:       m.Name,
		bc:         kernel.NewBufferCache(dev, t.Model(), m.CacheBlocks),
		dev:        dev,
		super:      super,
		barriers:   m.Barriers,
		bypass:     m.DataBypass,
		log:        m.Journal,
		logCap:     m.Journal.capacity(),
		dirs:       m.Dirs,
		inLog:      make(map[uint32]bool),
		blockRotor: super.DataStart,
		inodeRotor: 2,
		inodes:     make(map[uint32]*inode),
	}
	if err := fs.recover(t); err != nil {
		return nil, err
	}
	return fs, nil
}

// inode is the in-core inode.
type inode struct {
	inum uint32
	ref  int
	// freeNext chains recycled inodes: lookup/stat iget and iput one per
	// call, so a fresh struct per miss would dominate their allocations.
	freeNext *inode

	valid bool // din holds the on-disk inode
	din   layout.Dinode

	// Scratch: dent for dirent encode/decode, bounce
	// (lazily sized to a block) for sub-block direct I/O on files and
	// block scans on directories — the two never mix, since directory
	// contents never take the direct path. Recycled with the inode.
	dent   [layout.DirentSize]byte
	bounce []byte
}

// bounceBuf returns the inode's block-sized scratch; contents are
// unspecified.
func (ip *inode) bounceBuf() []byte {
	if ip.bounce == nil {
		ip.bounce = make([]byte, layout.BlockSize)
	}
	return ip.bounce
}

// FS is one mounted instance of the file system.
type FS struct {
	name     string
	bc       *kernel.BufferCache
	dev      *blockdev.Device
	super    layout.Superblock
	barriers bool
	bypass   bool
	dirs     Dirs

	// journal state (xv6's struct log). No locks anywhere in FS: one task
	// runs at a time (see the kernel package comment).
	log         Journal
	logCap      uint32
	outstanding int // open operations
	committing  bool
	logBlocks   []uint32 // blocks joined to the running transaction
	inLog       map[uint32]bool
	commitEnd   int64 // virtual completion of the last commit
	commits     int64

	// allocation rotors.
	blockRotor uint32
	inodeRotor uint32

	// in-core inode table, plus the recycle list of dropped entries.
	inodes map[uint32]*inode
	ifree  *inode
}

var (
	_ kernel.FileSystem        = (*FS)(nil)
	_ kernel.BlockCacheDropper = (*FS)(nil)
	_ kernel.PageLender        = (*FS)(nil)
)

// BufferCache exposes the metadata cache (tests and diagnostics).
func (fs *FS) BufferCache() *kernel.BufferCache { return fs.bc }

// Super returns the parsed superblock geometry.
func (fs *FS) Super() layout.Superblock { return fs.super }

// DropCleanBlocks implements kernel.BlockCacheDropper (drop_caches).
func (fs *FS) DropCleanBlocks() int { return fs.bc.DropClean() }

// dataDirect reports whether ip's contents take the buffer-cache
// bypass: regular-file data only, with DataBypass configured. ip is
// loaded.
func (fs *FS) dataDirect(ip *inode) bool {
	return fs.bypass && ip.din.Type == layout.TypeFile
}

// Commits reports committed transactions (benchmark stat).
func (fs *FS) Commits() int64 { return fs.commits }

// --- allocation ---

// balloc allocates a block within the current transaction. A data leaf
// under the bypass skips the journaled zeroing: its allocating writer
// overwrites the full block via the direct path before the size extends
// over it, and a journaled zero's deferred install could clobber that
// direct write.
func (fs *FS) balloc(t *kernel.Task, dataLeaf bool) (uint32, error) {
	sb := &fs.super
	rotor := fs.blockRotor
	if rotor < sb.DataStart || rotor >= sb.Size {
		rotor = sb.DataStart
	}
	for _, r := range [][2]uint32{{rotor, sb.Size}, {sb.DataStart, rotor}} {
		for b := r[0]; b < r[1]; {
			base := (b / layout.BitsPerBlock) * layout.BitsPerBlock
			end := base + layout.BitsPerBlock
			if end > r[1] {
				end = r[1]
			}
			bh, err := fs.bc.Get(t, int(sb.BitmapBlock(b)))
			if err != nil {
				return 0, err
			}
			data := bh.Data()
			for cur := b; cur < end; cur++ {
				bit := cur - base
				if data[bit/8]&(1<<(bit%8)) == 0 {
					data[bit/8] |= 1 << (bit % 8)
					if err := fs.logWrite(t, bh); err != nil {
						_ = bh.Release()
						return 0, err
					}
					_ = bh.Release()
					if dataLeaf && fs.bypass {
						fs.blockRotor = cur + 1
						return cur, nil
					}
					// Zero the block.
					zb, err := fs.bc.GetNoRead(t, int(cur))
					if err != nil {
						return 0, err
					}
					clear(zb.Data())
					if err := fs.logWrite(t, zb); err != nil {
						_ = zb.Release()
						return 0, err
					}
					_ = zb.Release()
					fs.blockRotor = cur + 1
					return cur, nil
				}
			}
			_ = bh.Release()
			b = end
		}
	}
	return 0, fsapi.ErrNoSpace
}

func (fs *FS) bfree(t *kernel.Task, blk uint32) error {
	if blk < fs.super.DataStart || blk >= fs.super.Size {
		return fmt.Errorf("%s: bfree %d outside data region: %w", fs.name, blk, fsapi.ErrInvalid)
	}
	bh, err := fs.bc.Get(t, int(fs.super.BitmapBlock(blk)))
	if err != nil {
		return err
	}
	data := bh.Data()
	bit := blk % layout.BitsPerBlock
	if data[bit/8]&(1<<(bit%8)) == 0 {
		_ = bh.Release()
		return fmt.Errorf("%s: double free of %d: %w", fs.name, blk, fsapi.ErrCorrupt)
	}
	data[bit/8] &^= 1 << (bit % 8)
	if err := fs.logWrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	if blk < fs.blockRotor {
		fs.blockRotor = blk
	}
	return bh.Release()
}

func (fs *FS) ialloc(t *kernel.Task, typ uint16) (*inode, error) {
	sb := &fs.super
	rotor := fs.inodeRotor
	if rotor < 2 || rotor >= sb.NInodes {
		rotor = 2
	}
	for _, r := range [][2]uint32{{rotor, sb.NInodes}, {2, rotor}} {
		for inum := r[0]; inum < r[1]; inum++ {
			bh, err := fs.bc.Get(t, int(sb.InodeBlock(inum)))
			if err != nil {
				return nil, err
			}
			off := layout.InodeOffset(inum)
			if layout.DinodeType(bh.Data()[off:]) != layout.TypeFree {
				_ = bh.Release()
				continue
			}
			din := layout.Dinode{Type: typ}
			din.Encode(bh.Data()[off:])
			if err := fs.logWrite(t, bh); err != nil {
				_ = bh.Release()
				return nil, err
			}
			_ = bh.Release()
			fs.inodeRotor = inum + 1
			ip := fs.iget(inum)
			ip.din = din
			ip.valid = true
			return ip, nil
		}
	}
	return nil, fsapi.ErrNoInodes
}

// --- in-core inodes ---

func (fs *FS) iget(inum uint32) *inode {
	if ip, ok := fs.inodes[inum]; ok {
		ip.ref++
		return ip
	}
	ip := fs.ifree
	if ip != nil {
		fs.ifree = ip.freeNext
		ip.freeNext = nil
		ip.inum = inum
		ip.ref = 1
		ip.valid = false
		ip.din = layout.Dinode{}
	} else {
		ip = &inode{inum: inum, ref: 1}
	}
	fs.inodes[inum] = ip
	return ip
}

// iload loads ip from disk on first use (xv6's ilock, minus the sleep
// lock: one task runs at a time).
func (fs *FS) iload(t *kernel.Task, ip *inode) error {
	if ip.valid {
		return nil
	}
	bh, err := fs.bc.Get(t, int(fs.super.InodeBlock(ip.inum)))
	if err != nil {
		return err
	}
	ip.din = layout.DecodeDinode(bh.Data()[layout.InodeOffset(ip.inum):])
	_ = bh.Release()
	if ip.din.Type == layout.TypeFree {
		return fsapi.ErrStale
	}
	ip.valid = true
	return nil
}

func (fs *FS) iupdate(t *kernel.Task, ip *inode) error {
	bh, err := fs.bc.Get(t, int(fs.super.InodeBlock(ip.inum)))
	if err != nil {
		return err
	}
	ip.din.Encode(bh.Data()[layout.InodeOffset(ip.inum):])
	if err := fs.logWrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	return bh.Release()
}

// iput drops a ref; hasTxn as in the Bento version.
func (fs *FS) iput(t *kernel.Task, ip *inode, hasTxn bool) error {
	if ip.valid && ip.din.Nlink == 0 && ip.ref == 1 {
		if !hasTxn {
			fs.beginOp(t)
			err := fs.iput(t, ip, true)
			if e := fs.endOp(t); err == nil {
				err = e
			}
			return err
		}
		if err := fs.itrunc(t, ip); err != nil {
			return err
		}
		ip.din.Type = layout.TypeFree
		if err := fs.iupdate(t, ip); err != nil {
			return err
		}
		if ip.inum < fs.inodeRotor {
			fs.inodeRotor = ip.inum
		}
		ip.valid = false
	}
	ip.ref--
	if ip.ref == 0 {
		// Nothing outside the table names this struct anymore; recycle.
		delete(fs.inodes, ip.inum)
		ip.freeNext = fs.ifree
		fs.ifree = ip
	}
	return nil
}

// bmap maps file block bn, allocating when alloc is set. fresh reports
// that the returned leaf was allocated by this call (under the bypass a
// fresh data leaf carries no zeroed content — the writer supplies the
// full block). Caller holds a transaction when allocating.
func (fs *FS) bmap(t *kernel.Task, ip *inode, bn uint64, alloc bool) (blk uint32, fresh bool, err error) {
	if bn >= layout.MaxFileBlocks {
		return 0, false, fsapi.ErrFileTooBig
	}
	dataLeaf := fs.dataDirect(ip)
	if bn < layout.NDirect {
		if ip.din.Addrs[bn] == 0 && alloc {
			a, err := fs.balloc(t, dataLeaf)
			if err != nil {
				return 0, false, err
			}
			ip.din.Addrs[bn] = a
			if err := fs.iupdate(t, ip); err != nil {
				return 0, false, err
			}
			return a, true, nil
		}
		return ip.din.Addrs[bn], false, nil
	}
	// Index path as a by-value array: the per-block write path must not
	// build a slice per bmap call.
	var idxs [2]int
	depth := 1
	var slot *uint32
	if bn < layout.NDirect+layout.NIndirect {
		slot = &ip.din.Addrs[layout.IndirectSlot]
		idxs[0] = int(bn - layout.NDirect)
	} else {
		off := bn - layout.NDirect - layout.NIndirect
		slot = &ip.din.Addrs[layout.DIndirectSlot]
		idxs[0], idxs[1] = int(off/layout.NIndirect), int(off%layout.NIndirect)
		depth = 2
	}
	cur := *slot
	if cur == 0 {
		if !alloc {
			return 0, false, nil
		}
		a, err := fs.balloc(t, false)
		if err != nil {
			return 0, false, err
		}
		*slot = a
		if err := fs.iupdate(t, ip); err != nil {
			return 0, false, err
		}
		cur = a
	}
	for lvl := 0; lvl < depth; lvl++ {
		idx := idxs[lvl]
		leaf := lvl == depth-1
		bh, err := fs.bc.Get(t, int(cur))
		if err != nil {
			return 0, false, err
		}
		data := bh.Data()
		next := u32(data, 4*idx)
		if next == 0 {
			if !alloc {
				_ = bh.Release()
				return 0, false, nil
			}
			a, err := fs.balloc(t, leaf && dataLeaf)
			if err != nil {
				_ = bh.Release()
				return 0, false, err
			}
			pu32(data, 4*idx, a)
			if err := fs.logWrite(t, bh); err != nil {
				_ = bh.Release()
				return 0, false, err
			}
			next = a
			fresh = leaf
		}
		_ = bh.Release()
		cur = next
	}
	return cur, fresh, nil
}

// clearMap zeroes the mapping for file block bn, journalling the block
// that holds the pointer. A direct pointer lives in the in-core inode,
// which the caller writes back.
func (fs *FS) clearMap(t *kernel.Task, ip *inode, bn uint64) error {
	if bn < layout.NDirect {
		ip.din.Addrs[bn] = 0
		return nil
	}
	var holder uint32
	var idx int
	if bn < layout.NDirect+layout.NIndirect {
		holder = ip.din.Addrs[layout.IndirectSlot]
		idx = int(bn - layout.NDirect)
	} else {
		off := bn - layout.NDirect - layout.NIndirect
		dind := ip.din.Addrs[layout.DIndirectSlot]
		if dind == 0 {
			return nil
		}
		bh, err := fs.bc.Get(t, int(dind))
		if err != nil {
			return err
		}
		holder = u32(bh.Data(), 4*int(off/layout.NIndirect))
		_ = bh.Release()
		idx = int(off % layout.NIndirect)
	}
	if holder == 0 {
		return nil
	}
	bh, err := fs.bc.Get(t, int(holder))
	if err != nil {
		return err
	}
	pu32(bh.Data(), 4*idx, 0)
	if err := fs.logWrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	return bh.Release()
}

func (fs *FS) itrunc(t *kernel.Task, ip *inode) error {
	for i := 0; i < layout.NDirect; i++ {
		if a := ip.din.Addrs[i]; a != 0 {
			if err := fs.bfree(t, a); err != nil {
				return err
			}
			ip.din.Addrs[i] = 0
		}
	}
	var freeTree func(uint32, int) error
	freeTree = func(b uint32, d int) error {
		bh, err := fs.bc.Get(t, int(b))
		if err != nil {
			return err
		}
		data := bh.Data()
		for i := 0; i < layout.NIndirect; i++ {
			a := u32(data, 4*i)
			if a == 0 {
				continue
			}
			if d > 1 {
				if err := freeTree(a, d-1); err != nil {
					_ = bh.Release()
					return err
				}
			} else if err := fs.bfree(t, a); err != nil {
				_ = bh.Release()
				return err
			}
		}
		_ = bh.Release()
		return fs.bfree(t, b)
	}
	if a := ip.din.Addrs[layout.IndirectSlot]; a != 0 {
		if err := freeTree(a, 1); err != nil {
			return err
		}
		ip.din.Addrs[layout.IndirectSlot] = 0
	}
	if a := ip.din.Addrs[layout.DIndirectSlot]; a != 0 {
		if err := freeTree(a, 2); err != nil {
			return err
		}
		ip.din.Addrs[layout.DIndirectSlot] = 0
	}
	ip.din.Size = 0
	return fs.iupdate(t, ip)
}

func (fs *FS) readi(t *kernel.Task, ip *inode, off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, fsapi.ErrInvalid
	}
	size := int64(ip.din.Size)
	if off >= size {
		return 0, nil
	}
	want := int64(len(buf))
	if off+want > size {
		want = size - off
	}
	direct := fs.dataDirect(ip)
	var bounce []byte
	var done int64
	for done < want {
		bn := uint64((off + done) / layout.BlockSize)
		bo := (off + done) % layout.BlockSize
		n := min(int64(layout.BlockSize)-bo, want-done)
		blk, _, err := fs.bmap(t, ip, bn, false)
		if err != nil {
			return int(done), err
		}
		switch {
		case blk == 0:
			clear(buf[done : done+n])
		case direct && bo == 0 && n == layout.BlockSize:
			// Device to page, no buffer-cache insertion.
			if err := fs.bc.ReadDirect(t, int(blk), buf[done:done+n]); err != nil {
				return int(done), err
			}
		case direct:
			if bounce == nil {
				bounce = ip.bounceBuf()
			}
			if err := fs.bc.ReadDirect(t, int(blk), bounce); err != nil {
				return int(done), err
			}
			copy(buf[done:done+n], bounce[bo:bo+n])
		default:
			bh, err := fs.bc.Get(t, int(blk))
			if err != nil {
				return int(done), err
			}
			copy(buf[done:done+n], bh.Data()[bo:bo+n])
			_ = bh.Release()
		}
		done += n
	}
	return int(done), nil
}

// writei writes buf at off.
func (fs *FS) writei(t *kernel.Task, ip *inode, off int64, buf []byte) (int, error) {
	return fs.writev(t, ip, off, [][]byte{buf}, int64(len(buf)), false)
}

// writev writes the first total bytes of src, the concatenation of its
// buffers, at off, growing the file as needed. With owned set src is a
// run of page buffers the kernel has given up (write-back) and off is
// page-aligned: a whole block of direct data is then a whole buffer of
// src and goes to the device as it is instead of being copied.
func (fs *FS) writev(t *kernel.Task, ip *inode, off int64, src [][]byte, total int64, owned bool) (int, error) {
	if off < 0 || off+total > layout.MaxFileSize {
		return 0, fsapi.ErrFileTooBig
	}
	direct := fs.dataDirect(ip)
	var bounce []byte
	var batchEnd int64 // latest completion of batched direct submits
	wait := func() {
		if batchEnd != 0 {
			t.WaitIO("write-batch", batchEnd)
		}
	}
	var done int64
	var si int   // src[si] holds the next byte to write,
	var so int64 // at offset so
	for done < total {
		bn := uint64((off + done) / layout.BlockSize)
		bo := (off + done) % layout.BlockSize
		n := min(int64(layout.BlockSize)-bo, total-done, int64(len(src[si]))-so)
		from := src[si][so : so+n]
		if so += n; so == int64(len(src[si])) {
			si, so = si+1, 0
		}
		blk, fresh, err := fs.bmap(t, ip, bn, true)
		if err != nil {
			wait()
			return int(done), err
		}
		if direct {
			whole := bo == 0 && n == layout.BlockSize
			if !whole {
				// Merge base: zeros for any block holding no committed
				// file bytes — fresh, or mapped wholly at/beyond EOF (a
				// leaf orphaned by a failed direct write, which skipped
				// balloc's zeroing); device content otherwise.
				if bounce == nil {
					bounce = ip.bounceBuf()
				}
				if fresh || int64(bn)*layout.BlockSize >= int64(ip.din.Size) {
					clear(bounce)
				} else if err := fs.bc.ReadDirect(t, int(blk), bounce); err != nil {
					wait()
					return int(done), err
				}
				copy(bounce[bo:bo+n], from)
				from = bounce
			}
			var completion int64
			if whole && owned {
				completion, err = fs.bc.WriteDirectOwned(t, int(blk), from)
			} else {
				completion, err = fs.bc.WriteDirect(t, int(blk), from)
			}
			if err != nil {
				wait()
				return int(done), err
			}
			if completion > batchEnd {
				batchEnd = completion
			}
			done += n
			continue
		}
		var bh *kernel.BufferHead
		if n == layout.BlockSize {
			bh, err = fs.bc.GetNoRead(t, int(blk))
		} else {
			bh, err = fs.bc.Get(t, int(blk))
		}
		if err != nil {
			return int(done), err
		}
		copy(bh.Data()[bo:bo+n], from)
		if err := fs.logWrite(t, bh); err != nil {
			_ = bh.Release()
			return int(done), err
		}
		_ = bh.Release()
		done += n
	}
	wait()
	if end := off + done; end > int64(ip.din.Size) {
		ip.din.Size = uint64(end)
	}
	return int(done), fs.iupdate(t, ip)
}

func u32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func pu32(b []byte, off int, v uint32) {
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
