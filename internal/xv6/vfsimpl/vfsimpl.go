// Package vfsimpl is the xv6 file system written directly against the
// simulated kernel's VFS interface — the Go rendering of the paper's C
// baseline ("C-Kernel" bars in every figure).
//
// It shares the on-disk format (internal/xv6/layout) with the Bento
// version but is a separate implementation, as the paper's baselines
// were: it talks straight to the kernel buffer cache with no capability
// wrappers or ownership checking, and it implements only the single-page
// ->writepage write-back path (no batched writepages) — the two
// differences the paper identifies between the variants. The code is
// deliberately C-flavoured: flat functions over the same structs, with
// manual brelse bookkeeping.
package vfsimpl

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
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
	fs := &FS{
		cfg:    tt.Cfg,
		bc:     kernel.NewBufferCache(dev, t.Model(), 0),
		dev:    dev,
		inodes: make(map[uint32]*inode),
	}
	buf := make([]byte, layout.BlockSize)
	if err := dev.Read(t.Clk, 1, buf); err != nil {
		return nil, err
	}
	super, err := layout.DecodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	fs.super = super
	fs.inLog = make(map[uint32]bool)
	fs.blockRotor = super.DataStart
	fs.inodeRotor = 2
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

// FS is one mounted instance of the baseline.
type FS struct {
	cfg   Config
	bc    *kernel.BufferCache
	dev   *blockdev.Device
	super layout.Superblock

	// log state (xv6's struct log). No locks anywhere in FS: one task
	// runs at a time (see the kernel package comment).
	outstanding int
	reserved    uint32
	committing  bool
	logBlocks   []uint32
	inLog       map[uint32]bool
	commitEnd   int64
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
	return fs.cfg.DataBypass && ip.din.Type == layout.TypeFile
}

// Commits reports committed transactions (benchmark stat).
func (fs *FS) Commits() int64 { return fs.commits }

// --- log ---

func (fs *FS) recover(t *kernel.Task) error {
	hb, err := fs.bc.Get(t, int(fs.super.LogStart))
	if err != nil {
		return err
	}
	lh := layout.DecodeLogHeader(hb.Data())
	if lh.N > 0 {
		var last int64
		for i := uint32(0); i < lh.N; i++ {
			src, err := fs.bc.Get(t, int(fs.super.LogStart+1+i))
			if err != nil {
				return err
			}
			dst, err := fs.bc.GetNoRead(t, int(lh.Blocks[i]))
			if err != nil {
				return err
			}
			copy(dst.Data(), src.Data())
			done, err := dst.SubmitWrite(t)
			if err != nil {
				return err
			}
			if done > last {
				last = done
			}
			_ = src.Release()
			_ = dst.Release()
		}
		t.WaitIO("install", last)
		if fs.cfg.FlushCommits {
			if err := fs.dev.Flush(t.Clk); err != nil {
				return err
			}
		}
	}
	var empty layout.LogHeader
	empty.Encode(hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if err := hb.Release(); err != nil {
		return err
	}
	if fs.cfg.FlushCommits {
		return fs.dev.Flush(t.Clk)
	}
	return nil
}

func (fs *FS) beginOp(t *kernel.Task, nblocks uint32) {
	if fs.committing || uint32(len(fs.logBlocks))+fs.reserved+nblocks > layout.LogSize {
		// One task runs at a time and an operation commits before its
		// task yields, so there is never a commit or a full log to wait out.
		panic(fmt.Sprintf("xv6vfs: beginOp(%d) found the log committing=%v with %d logged + %d reserved of %d blocks: "+
			"another task is mid-transaction, which the one-runner-at-a-time contract forbids",
			nblocks, fs.committing, len(fs.logBlocks), fs.reserved, layout.LogSize))
	}
	fs.outstanding++
	fs.reserved += nblocks
	if r := t.Rec(); r != nil && fs.commitEnd > t.Clk.NowNS() {
		r.Span(t.Name, trace.CatJournal, "begin-stall", t.Clk.NowNS(), fs.commitEnd)
		r.Add(trace.CtrJournalStalls, 1)
	}
	t.Clk.AdvanceTo(fs.commitEnd)
}

func (fs *FS) logWrite(t *kernel.Task, bh *kernel.BufferHead) error {
	bh.MarkDirty()
	blk := uint32(bh.BlockNo())
	if fs.outstanding == 0 {
		return fmt.Errorf("xv6vfs: log write outside transaction: %w", fsapi.ErrInvalid)
	}
	if fs.inLog[blk] {
		t.Rec().Add(trace.CtrJournalAbsorbed, 1)
		return nil
	}
	if uint32(len(fs.logBlocks)) >= layout.LogSize {
		return fmt.Errorf("xv6vfs: transaction too big: %w", fsapi.ErrNoSpace)
	}
	fs.inLog[blk] = true
	fs.logBlocks = append(fs.logBlocks, blk)
	return nil
}

func (fs *FS) endOp(t *kernel.Task, nblocks uint32) error {
	fs.outstanding--
	fs.reserved -= nblocks
	if fs.outstanding > 0 {
		return nil
	}
	fs.committing = true
	blocks := fs.logBlocks

	var err error
	if len(blocks) > 0 {
		commitStart := t.Clk.NowNS()
		err = fs.commit(t, blocks)
		if r := t.Rec(); r != nil {
			r.SpanAB(t.Name, trace.CatJournal, "commit", commitStart, t.Clk.NowNS(), int64(len(blocks)), 0)
			r.Add(trace.CtrJournalCommits, 1)
			r.Add(trace.CtrJournalBlocks, int64(len(blocks)))
		}
	}

	// Reset in place: slice capacity and map buckets carry to the next
	// transaction instead of being reallocated per commit.
	fs.logBlocks = fs.logBlocks[:0]
	clear(fs.inLog)
	fs.committing = false
	fs.commits++
	if now := t.Clk.NowNS(); now > fs.commitEnd {
		fs.commitEnd = now
	}
	return err
}

func (fs *FS) commit(t *kernel.Task, blocks []uint32) error {
	// Copy home blocks into the log region (synchronous per-block writes,
	// like xv6's bwrite).
	for i, home := range blocks {
		src, err := fs.bc.Get(t, int(home))
		if err != nil {
			return err
		}
		dst, err := fs.bc.GetNoRead(t, int(fs.super.LogStart+1+uint32(i)))
		if err != nil {
			return err
		}
		copy(dst.Data(), src.Data())
		if err := dst.WriteSync(t); err != nil {
			return err
		}
		_ = dst.Release()
		_ = src.Release()
	}
	// Commit record.
	var lh layout.LogHeader
	lh.N = uint32(len(blocks))
	copy(lh.Blocks[:], blocks)
	hb, err := fs.bc.GetNoRead(t, int(fs.super.LogStart))
	if err != nil {
		return err
	}
	lh.Encode(hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if fs.cfg.FlushCommits {
		if err := fs.dev.Flush(t.Clk); err != nil {
			return err
		}
	}
	// Install home.
	var last int64
	for _, home := range blocks {
		src, err := fs.bc.Get(t, int(home))
		if err != nil {
			return err
		}
		done, err := src.SubmitWrite(t)
		if err != nil {
			return err
		}
		if done > last {
			last = done
		}
		_ = src.Release()
	}
	t.WaitIO("install", last)
	if fs.cfg.FlushCommits {
		if err := fs.dev.Flush(t.Clk); err != nil {
			return err
		}
	}
	// Clear the record.
	lh = layout.LogHeader{}
	lh.Encode(hb.Data())
	if err := hb.WriteSync(t); err != nil {
		return err
	}
	if err := hb.Release(); err != nil {
		return err
	}
	if fs.cfg.FlushCommits {
		return fs.dev.Flush(t.Clk)
	}
	return nil
}

func (fs *FS) forceCommit(t *kernel.Task) error {
	fs.beginOp(t, 1)
	return fs.endOp(t, 1)
}

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
					if dataLeaf && fs.cfg.DataBypass {
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
		return fmt.Errorf("xv6vfs: bfree %d outside data region: %w", blk, fsapi.ErrInvalid)
	}
	bh, err := fs.bc.Get(t, int(fs.super.BitmapBlock(blk)))
	if err != nil {
		return err
	}
	data := bh.Data()
	bit := blk % layout.BitsPerBlock
	if data[bit/8]&(1<<(bit%8)) == 0 {
		_ = bh.Release()
		return fmt.Errorf("xv6vfs: double free of %d: %w", blk, fsapi.ErrCorrupt)
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
			fs.beginOp(t, layout.MaxOpBlocks)
			err := fs.iput(t, ip, true)
			if e := fs.endOp(t, layout.MaxOpBlocks); err == nil {
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
// full block). Caller holds ip.mu and a transaction when allocating.
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

func (fs *FS) itrunc(t *kernel.Task, ip *inode) error {
	for i := 0; i < layout.NDirect; i++ {
		if a := ip.din.Addrs[i]; a != 0 {
			if err := fs.bfree(t, a); err != nil {
				return err
			}
			ip.din.Addrs[i] = 0
		}
	}
	freeTree := func(blk uint32, depth int) error {
		var rec func(uint32, int) error
		rec = func(b uint32, d int) error {
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
					if err := rec(a, d-1); err != nil {
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
		return rec(blk, depth)
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
		n := min64(int64(layout.BlockSize)-bo, want-done)
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

// writei writes buf at off. With owned set buf is a page buffer the kernel
// has given up (write-back), so a whole block of it goes to the device as
// it is instead of being copied.
func (fs *FS) writei(t *kernel.Task, ip *inode, off int64, buf []byte, owned bool) (int, error) {
	if off < 0 || off+int64(len(buf)) > layout.MaxFileSize {
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
	want := int64(len(buf))
	for done < want {
		bn := uint64((off + done) / layout.BlockSize)
		bo := (off + done) % layout.BlockSize
		n := min64(int64(layout.BlockSize)-bo, want-done)
		blk, fresh, err := fs.bmap(t, ip, bn, true)
		if err != nil {
			wait()
			return int(done), err
		}
		if direct {
			src := buf[done : done+n]
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
				copy(bounce[bo:bo+n], src)
				src = bounce
			}
			var completion int64
			if whole && owned {
				completion, err = fs.bc.WriteDirectOwned(t, int(blk), src)
			} else {
				completion, err = fs.bc.WriteDirect(t, int(blk), src)
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
		copy(bh.Data()[bo:bo+n], buf[done:done+n])
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

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
