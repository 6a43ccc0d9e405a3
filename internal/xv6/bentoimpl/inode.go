package bentoimpl

import (
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// Inode is the in-core inode (xv6's struct inode): a reference-counted
// copy of the on-disk inode. xv6 guards it with a per-inode sleep lock,
// and the paper notes (§6.1) that the Rust versions carry more locks
// still; the simulator runs one task at a time, so the in-core inode is
// plain memory and "locking" an inode is just loading it (iload).
type Inode struct {
	fs   *FS
	inum uint32

	// ref counts in-core references (iget/iput).
	ref int

	// freeNext chains recycled Inodes: the lookup/stat hot paths iget
	// and iput an inode per call, so minting a fresh struct each time
	// would dominate their allocations.
	freeNext *Inode

	valid bool // din holds the on-disk inode
	din   layout.Dinode

	// dbuf is heap-resident scratch for iload's on-disk inode read: a
	// stack array passed through the bentoks.Disk interface would escape
	// and allocate per call.
	dbuf [layout.InodeSize]byte
	// ptr is such scratch for mapLevel's read of one block pointer.
	ptr [4]byte
	// dent is dirent-sized scratch for directory-entry encode/decode
	// (dirlink, isDirEmpty, rename's ".." rewrite).
	dent [layout.DirentSize]byte
	// bounce is a lazily allocated block-sized scratch: sub-block direct
	// I/O for files, block scans for directories (the two never mix —
	// directory contents are metadata and never take the direct path).
	// Recycled with the Inode via the freelist.
	bounce []byte
}

// bounceBuf returns the inode's block-sized scratch; contents are
// unspecified.
func (ip *Inode) bounceBuf() []byte {
	if ip.bounce == nil {
		ip.bounce = make([]byte, layout.BlockSize)
	}
	return ip.bounce
}

// itable is the in-core inode cache plus the recycle list.
type itable struct {
	entries map[uint32]*Inode
	free    *Inode
}

// iget returns a referenced in-core inode for inum without loading it.
func (fs *FS) iget(inum uint32) *Inode {
	if ip, ok := fs.itab.entries[inum]; ok {
		ip.ref++
		return ip
	}
	ip := fs.itab.free
	if ip != nil {
		fs.itab.free = ip.freeNext
		ip.freeNext = nil
		ip.inum = inum
		ip.ref = 1
		ip.valid = false
		ip.din = layout.Dinode{}
	} else {
		ip = &Inode{fs: fs, inum: inum, ref: 1}
	}
	fs.itab.entries[inum] = ip
	return ip
}

// iload loads the inode from disk on first use (xv6's ilock, minus the
// sleep lock).
func (ip *Inode) iload(t *kernel.Task) error {
	if ip.valid {
		return nil
	}
	fs := ip.fs
	err := fs.sb.ReadBlockRange(t, int(fs.super.InodeBlock(ip.inum)),
		layout.InodeOffset(ip.inum), ip.dbuf[:])
	if err != nil {
		return err
	}
	ip.din = layout.DecodeDinode(ip.dbuf[:])
	if ip.din.Type == layout.TypeFree {
		// Bare: a stat of an unlinked file lands here on every warm
		// create-and-unlink, where a formatted error would allocate.
		return fsapi.ErrStale
	}
	ip.valid = true
	return nil
}

// iupdate writes the in-core inode to its disk block through the log.
// Caller holds an open transaction.
func (ip *Inode) iupdate(t *kernel.Task) (err error) {
	fs := ip.fs
	bh, err := fs.sb.BRead(t, int(fs.super.InodeBlock(ip.inum)))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	ip.din.Encode(data[layout.InodeOffset(ip.inum):])
	return fs.logWrite(t, bh)
}

// errNeedTxn signals that iput must free the inode but the caller holds
// no transaction; the caller retries inside one.
var errNeedTxn = fmt.Errorf("xv6: iput needs a transaction")

// iput drops a reference; the last reference to an unlinked inode
// truncates and frees it. Freeing journals blocks, so it requires an open
// transaction: callers inside one pass hasTxn=true, callers outside use
// iputOutside, which opens a transaction only when the free path is
// actually taken.
func (ip *Inode) iput(t *kernel.Task, hasTxn bool) error {
	fs := ip.fs
	if ip.valid && ip.din.Nlink == 0 && ip.ref == 1 {
		// We hold the only reference and the inode is unlinked:
		// truncate and free it. No new reference can appear because
		// no directory entry names it.
		if !hasTxn {
			return errNeedTxn
		}
		if err := ip.itrunc(t); err != nil {
			return err
		}
		ip.din.Type = layout.TypeFree
		if err := ip.iupdate(t); err != nil {
			return err
		}
		if err := fs.ifree(t, ip.inum); err != nil {
			return err
		}
		ip.valid = false
	}

	ip.ref--
	if ip.ref == 0 {
		// Last reference gone: nothing outside the table can name this
		// struct anymore, so recycle it for the next iget miss.
		delete(fs.itab.entries, ip.inum)
		ip.freeNext = fs.itab.free
		fs.itab.free = ip
	}
	return nil
}

// bmap returns the disk block backing file block bn, allocating (within
// the current transaction) when alloc is set. Returns 0 for a hole when
// not allocating. fresh reports that the returned leaf was allocated by
// this call — under the data bypass a fresh leaf carries no zeroed
// content, so the writer must supply the full block. ip is loaded.
func (ip *Inode) bmap(t *kernel.Task, bn uint64, alloc bool) (blk uint32, fresh bool, err error) {
	fs := ip.fs
	if bn >= layout.MaxFileBlocks {
		return 0, false, fsapi.ErrFileTooBig
	}
	dataLeaf := fs.dataDirect(ip)

	// Direct.
	if bn < layout.NDirect {
		addr := ip.din.Addrs[bn]
		if addr == 0 && alloc {
			a, err := fs.balloc(t, dataLeaf)
			if err != nil {
				return 0, false, err
			}
			ip.din.Addrs[bn] = a
			if err := ip.iupdate(t); err != nil {
				return 0, false, err
			}
			return a, true, nil
		}
		return addr, false, nil
	}

	// Indirect.
	if bn < layout.NDirect+layout.NIndirect {
		idx := int(bn - layout.NDirect)
		return ip.mapThrough(t, &ip.din.Addrs[layout.IndirectSlot], [2]int{idx, 0}, 1, alloc, dataLeaf)
	}

	// Double indirect.
	idx := bn - layout.NDirect - layout.NIndirect
	return ip.mapThrough(t, &ip.din.Addrs[layout.DIndirectSlot],
		[2]int{int(idx / layout.NIndirect), int(idx % layout.NIndirect)}, 2, alloc, dataLeaf)
}

// mapThrough walks (allocating as needed) a chain of depth indirect
// blocks selected by idxs (a by-value array, so the per-block write path
// builds no slice), starting from the pointer slot *slot. The indirect
// blocks along the chain are metadata — always journaled and zeroed —
// only the final level's target is the data leaf.
func (ip *Inode) mapThrough(t *kernel.Task, slot *uint32, idxs [2]int, depth int, alloc, dataLeaf bool) (uint32, bool, error) {
	fs := ip.fs
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
		if err := ip.iupdate(t); err != nil {
			return 0, false, err
		}
		cur = a
	}
	fresh := false
	for lvl := 0; lvl < depth; lvl++ {
		next, isNew, err := ip.mapLevel(t, cur, idxs[lvl], alloc, lvl == depth-1 && dataLeaf)
		if err != nil || next == 0 {
			return 0, false, err
		}
		cur, fresh = next, isNew
	}
	return cur, fresh, nil
}

// mapLevel returns the pointer at idx of indirect block blk. A zero
// pointer, with alloc set, is first pointed at a block balloc allocates
// (a data leaf when dataLeaf), and fresh reports it. Without alloc the
// pointer is copied out by ReadBlockRange, which costs what BRead and
// Release cost but makes no buffer handle.
func (ip *Inode) mapLevel(t *kernel.Task, blk uint32, idx int, alloc, dataLeaf bool) (next uint32, fresh bool, err error) {
	fs := ip.fs
	if !alloc {
		if err := fs.sb.ReadBlockRange(t, int(blk), 4*idx, ip.ptr[:]); err != nil {
			return 0, false, err
		}
		return leU32(ip.ptr[:], 0), false, nil
	}
	bh, err := fs.sb.BRead(t, int(blk))
	if err != nil {
		return 0, false, err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return 0, false, err
	}
	if next = leU32(data, 4*idx); next != 0 {
		return next, false, nil
	}
	if next, err = fs.balloc(t, dataLeaf); err != nil {
		return 0, false, err
	}
	putU32(data, 4*idx, next)
	if err := fs.logWrite(t, bh); err != nil {
		return 0, false, err
	}
	return next, true, nil
}

// clearMapping zeroes the pointer that maps file block bn (after the
// block itself has been freed), journaling the indirect block that holds
// it; a direct pointer lives in the in-core inode, which the caller
// writes back. Indirect blocks left empty are not reclaimed eagerly; a
// later full truncate frees them. ip is loaded; caller holds a
// transaction.
func (ip *Inode) clearMapping(t *kernel.Task, bn uint64) error {
	fs := ip.fs
	if bn < layout.NDirect {
		ip.din.Addrs[bn] = 0
		return nil
	}
	// Locate the level-1 indirect block holding the pointer.
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
		var err error
		if holder, _, err = ip.mapLevel(t, dind, int(off/layout.NIndirect), false, false); err != nil {
			return err
		}
		idx = int(off % layout.NIndirect)
	}
	if holder == 0 {
		return nil
	}
	return fs.clearPtr(t, holder, idx)
}

// clearPtr zeroes the pointer at idx of indirect block blk through the
// log.
func (fs *FS) clearPtr(t *kernel.Task, blk uint32, idx int) (err error) {
	bh, err := fs.sb.BRead(t, int(blk))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	putU32(data, 4*idx, 0)
	return fs.logWrite(t, bh)
}

// itrunc frees all blocks of the file and zeroes its size. ip is
// loaded; caller holds an open transaction. Because a transaction is
// bounded, huge files are truncated in chunks: the caller-facing wrapper
// in fs.go splits the work across transactions.
func (ip *Inode) itrunc(t *kernel.Task) error {
	fs := ip.fs
	for i := 0; i < layout.NDirect; i++ {
		if a := ip.din.Addrs[i]; a != 0 {
			if err := fs.bfree(t, a); err != nil {
				return err
			}
			ip.din.Addrs[i] = 0
		}
	}
	if a := ip.din.Addrs[layout.IndirectSlot]; a != 0 {
		if err := fs.freeIndirect(t, a, 1); err != nil {
			return err
		}
		ip.din.Addrs[layout.IndirectSlot] = 0
	}
	if a := ip.din.Addrs[layout.DIndirectSlot]; a != 0 {
		if err := fs.freeIndirect(t, a, 2); err != nil {
			return err
		}
		ip.din.Addrs[layout.DIndirectSlot] = 0
	}
	ip.din.Size = 0
	return ip.iupdate(t)
}

// freeIndirect frees an indirect block of the given depth and everything
// below it.
func (fs *FS) freeIndirect(t *kernel.Task, blk uint32, depth int) error {
	if err := fs.freeChildren(t, blk, depth); err != nil {
		return err
	}
	return fs.bfree(t, blk)
}

// freeChildren frees everything below indirect block blk of the given
// depth, leaving blk itself allocated.
func (fs *FS) freeChildren(t *kernel.Task, blk uint32, depth int) (err error) {
	bh, err := fs.sb.BRead(t, int(blk))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	for i := 0; i < layout.NIndirect; i++ {
		switch a := leU32(data, 4*i); {
		case a == 0:
		case depth > 1:
			err = fs.freeIndirect(t, a, depth-1)
		default:
			err = fs.bfree(t, a)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readi reads up to len(buf) bytes at off from the file. Regular-file
// data under the bypass is read from the device straight into the
// caller's buffer (which, on the kernel read path, is the page-cache
// page itself); everything else goes through the buffer cache. ip is
// loaded.
func (ip *Inode) readi(t *kernel.Task, off int64, buf []byte) (int, error) {
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
	direct := ip.fs.dataDirect(ip)
	var bounce []byte
	var done int64
	for done < want {
		bn := uint64((off + done) / layout.BlockSize)
		bo := (off + done) % layout.BlockSize
		n := int64(layout.BlockSize) - bo
		if n > want-done {
			n = want - done
		}
		blk, _, err := ip.bmap(t, bn, false)
		if err != nil {
			return int(done), err
		}
		switch {
		case blk == 0:
			// Hole: reads as zeros.
			clear(buf[done : done+n])
		case direct && bo == 0 && n == layout.BlockSize:
			if err := ip.fs.direct.BReadDirect(t, int(blk), buf[done:done+n]); err != nil {
				return int(done), err
			}
		case direct:
			// Sub-block request: direct I/O is block-granular, so read
			// the whole block into a bounce page and copy the range out.
			if bounce == nil {
				bounce = ip.bounceBuf()
			}
			if err := ip.fs.direct.BReadDirect(t, int(blk), bounce); err != nil {
				return int(done), err
			}
			copy(buf[done:done+n], bounce[bo:bo+n])
		default:
			if err := ip.fs.sb.ReadBlockRange(t, int(blk), int(bo), buf[done:done+n]); err != nil {
				return int(done), err
			}
		}
		done += n
	}
	return int(done), nil
}

// writei writes buf at off.
func (ip *Inode) writei(t *kernel.Task, off int64, buf []byte) (int, error) {
	return ip.writev(t, off, [][]byte{buf}, int64(len(buf)), false)
}

// writev writes the first total bytes of src, the concatenation of its
// buffers, at off, growing the file as needed. Regular-file data under the
// bypass is submitted straight to the device — batched across the loop so
// consecutive blocks overlap on the device queues — and never journaled;
// metadata updates (bitmap, indirects, inode) stay in the transaction.
// With owned set src is a run of page buffers the kernel has given up
// (write-back) and off is page-aligned: a whole block is then a whole
// buffer of src and is passed on as it is instead of being copied — to
// the device as direct data (BWriteOwned), to the disk as the journaled
// block otherwise (BAdopt). Direct data is ordered data: writev does not
// wait for it but hands each block and its completion to the transaction
// (journal.Log.OrderData), whose commit record waits for it; a failed
// write waits for what it submitted before it returns. ip is loaded;
// caller holds a transaction sized for the write (see writeChunkBlocks).
func (ip *Inode) writev(t *kernel.Task, off int64, src [][]byte, total int64, owned bool) (int, error) {
	if off < 0 {
		return 0, fsapi.ErrInvalid
	}
	if off+total > layout.MaxFileSize {
		return 0, fsapi.ErrFileTooBig
	}
	direct := ip.fs.dataDirect(ip)
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
		blk, fresh, err := ip.bmap(t, bn, true)
		if err != nil {
			wait()
			return int(done), err
		}
		if direct {
			whole := bo == 0 && n == layout.BlockSize
			if !whole {
				// Sub-block write: merge with the block's current
				// content. A block holding no committed file bytes —
				// freshly allocated, or mapped wholly at/beyond EOF
				// (a leaf left over from a failed direct write, which
				// skipped balloc's zeroing) — merges against zeros:
				// the device holds whatever the block's previous life
				// left there, never file content.
				if bounce == nil {
					bounce = ip.bounceBuf()
				}
				if fresh || int64(bn)*layout.BlockSize >= int64(ip.din.Size) {
					clear(bounce)
				} else if err := ip.fs.direct.BReadDirect(t, int(blk), bounce); err != nil {
					wait()
					return int(done), err
				}
				copy(bounce[bo:bo+n], from)
				from = bounce
			}
			var completion int64
			if whole && owned {
				completion, err = ip.fs.direct.BWriteOwned(t, int(blk), from)
			} else {
				completion, err = ip.fs.direct.BWriteDirect(t, int(blk), from)
			}
			if err != nil {
				wait()
				return int(done), err
			}
			batchEnd = max(batchEnd, completion)
			ip.fs.log.OrderData(uint32(blk), completion)
			done += n
			continue
		}
		if err := ip.bufferedWrite(t, blk, bo, from, owned); err != nil {
			return int(done), err
		}
		done += n
	}
	if end := off + done; end > int64(ip.din.Size) {
		ip.din.Size = uint64(end)
	}
	return int(done), ip.iupdate(t)
}

// bufferedWrite writes from at bo of block blk through the log — the
// journal-everything data path. A whole block overwrites without a read,
// and when it is a page the kernel gave up (owned) the disk may keep the
// page itself as the block (BAdopt).
func (ip *Inode) bufferedWrite(t *kernel.Task, blk uint32, bo int64, from []byte, owned bool) (err error) {
	sb := ip.fs.sb
	whole := len(from) == layout.BlockSize
	adopt := whole && owned
	var bh bentoks.Buffer
	switch {
	case adopt:
		bh, err = sb.BAdopt(t, int(blk), from)
	case whole:
		bh, err = sb.BReadNoFill(t, int(blk))
	default:
		bh, err = sb.BRead(t, int(blk))
	}
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	if !adopt {
		data, err := bh.Data()
		if err != nil {
			return err
		}
		copy(data[bo:], from)
	}
	return ip.fs.logWrite(t, bh)
}

// stat converts the in-core inode to fsapi.Stat. ip is loaded.
func (ip *Inode) stat() fsapi.Stat {
	st := fsapi.Stat{Ino: fsapi.Ino(ip.inum), Size: int64(ip.din.Size), Nlink: uint32(ip.din.Nlink)}
	switch ip.din.Type {
	case layout.TypeDir:
		st.Type = fsapi.TypeDir
	case layout.TypeFile:
		st.Type = fsapi.TypeFile
	}
	return st
}

func leU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}
