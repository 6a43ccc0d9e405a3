package ext4

import (
	"fmt"

	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// --- allocation ---

// balloc allocates a block within the current handle. A data leaf under
// the bypass skips the journaled zeroing: its allocating writer
// overwrites the full block via the direct path before the size extends
// over it, and a journaled zero's deferred checkpoint could clobber the
// direct write.
func (fs *FS) balloc(t *kernel.Task, dataLeaf bool) (uint32, error) {
	sb := &fs.super
	rotor := fs.blockRotor
	if rotor < sb.dataStart || rotor >= sb.size {
		rotor = sb.dataStart
	}
	for _, r := range [][2]uint32{{rotor, sb.size}, {sb.dataStart, rotor}} {
		for b := r[0]; b < r[1]; {
			base := (b / layout.BitsPerBlock) * layout.BitsPerBlock
			end := base + layout.BitsPerBlock
			if end > r[1] {
				end = r[1]
			}
			bh, err := fs.bc.Get(t, int(sb.bmapStart+b/layout.BitsPerBlock))
			if err != nil {
				return 0, err
			}
			data := bh.Data()
			for cur := b; cur < end; cur++ {
				bit := cur - base
				if data[bit/8]&(1<<(bit%8)) == 0 {
					data[bit/8] |= 1 << (bit % 8)
					if err := fs.jwrite(t, bh); err != nil {
						_ = bh.Release()
						return 0, err
					}
					_ = bh.Release()
					if dataLeaf && fs.cfg.DataBypass {
						fs.blockRotor = cur + 1
						return cur, nil
					}
					zb, err := fs.bc.GetNoRead(t, int(cur))
					if err != nil {
						return 0, err
					}
					clear(zb.Data())
					if err := fs.jwrite(t, zb); err != nil {
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
	if blk < fs.super.dataStart || blk >= fs.super.size {
		return fmt.Errorf("ext4: bfree %d out of range: %w", blk, fsapi.ErrInvalid)
	}
	bh, err := fs.bc.Get(t, int(fs.super.bmapStart+blk/layout.BitsPerBlock))
	if err != nil {
		return err
	}
	data := bh.Data()
	bit := blk % layout.BitsPerBlock
	if data[bit/8]&(1<<(bit%8)) == 0 {
		_ = bh.Release()
		return fmt.Errorf("ext4: double free of %d: %w", blk, fsapi.ErrCorrupt)
	}
	data[bit/8] &^= 1 << (bit % 8)
	if err := fs.jwrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	if blk < fs.blockRotor {
		fs.blockRotor = blk
	}
	return bh.Release()
}

func (fs *FS) inodeBlock(inum uint32) int {
	return int(fs.super.inodeStart + inum/layout.InodesPerBlock)
}

func (fs *FS) ialloc(t *kernel.Task, typ uint16) (*inode, error) {
	rotor := fs.inodeRotor
	if rotor < 2 || rotor >= fs.super.nInodes {
		rotor = 2
	}
	for _, r := range [][2]uint32{{rotor, fs.super.nInodes}, {2, rotor}} {
		for inum := r[0]; inum < r[1]; inum++ {
			bh, err := fs.bc.Get(t, fs.inodeBlock(inum))
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
			if err := fs.jwrite(t, bh); err != nil {
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

func (fs *FS) iload(t *kernel.Task, ip *inode) error {
	if ip.valid {
		return nil
	}
	bh, err := fs.bc.Get(t, fs.inodeBlock(ip.inum))
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
	bh, err := fs.bc.Get(t, fs.inodeBlock(ip.inum))
	if err != nil {
		return err
	}
	ip.din.Encode(bh.Data()[layout.InodeOffset(ip.inum):])
	if err := fs.jwrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	return bh.Release()
}

func (fs *FS) iput(t *kernel.Task, ip *inode, hasHandle bool) error {
	if ip.valid && ip.din.Nlink == 0 && ip.ref == 1 {
		if !hasHandle {
			fs.beginHandle(t, maxHandleBlocks)
			err := fs.iput(t, ip, true)
			if e := fs.endHandle(t); err == nil {
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
		delete(fs.inodes, ip.inum)
		ip.freeNext = fs.ifree
		fs.ifree = ip
	}
	return nil
}

// bmap/itrunc/readi/writei: same pointer tree as xv6 (the comparison
// isolates journaling and lookup behaviour, not extent formats).

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
	// Fixed-size index array: a []int literal here would heap-allocate on
	// every indirect-block map.
	var idxs [2]int
	depth := 1
	var slot *uint32
	if bn < layout.NDirect+layout.NIndirect {
		slot = &ip.din.Addrs[layout.IndirectSlot]
		idxs[0] = int(bn - layout.NDirect)
	} else {
		off := bn - layout.NDirect - layout.NIndirect
		slot = &ip.din.Addrs[layout.DIndirectSlot]
		idxs[0] = int(off / layout.NIndirect)
		idxs[1] = int(off % layout.NIndirect)
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
			if err := fs.jwrite(t, bh); err != nil {
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
	if err := fs.jwrite(t, bh); err != nil {
		_ = bh.Release()
		return err
	}
	return bh.Release()
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
		n := int64(layout.BlockSize) - bo
		if n > want-done {
			n = want - done
		}
		blk, _, err := fs.bmap(t, ip, bn, false)
		if err != nil {
			return int(done), err
		}
		switch {
		case blk == 0:
			clear(buf[done : done+n])
		case direct && bo == 0 && n == layout.BlockSize:
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
		if err := fs.jwrite(t, bh); err != nil {
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
