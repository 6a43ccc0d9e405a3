package bentoimpl

import (
	"fmt"

	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// allocator holds the rotor hints that keep allocation from rescanning
// the bitmap from zero every time. The paper's §6.1 added locks around
// inode and block allocation ("race conditions on the block device");
// the simulator runs one task at a time, so there is nothing to lock.
type allocator struct {
	blockRotor uint32 // next data block to consider
	inodeRotor uint32 // next inum to consider
}

// balloc allocates a block within the current transaction, scanning the
// bitmap from the rotor hint and wrapping once. Metadata blocks (and
// every block when DataBypass is off) are zeroed through the log; a
// data leaf under the bypass is not — its allocating writer overwrites
// the full block via the direct path before the size extends over it,
// and journaling a zero here would plant a cached copy whose deferred
// install could clobber that direct write.
func (fs *FS) balloc(t *kernel.Task, dataLeaf bool) (uint32, error) {
	sb := &fs.super
	rotor := fs.alloc.blockRotor
	if rotor < sb.DataStart || rotor >= sb.Size {
		rotor = sb.DataStart
	}
	blk, err := fs.ballocRange(t, rotor, sb.Size)
	if err != nil {
		return 0, err
	}
	if blk == 0 {
		blk, err = fs.ballocRange(t, sb.DataStart, rotor)
		if err != nil {
			return 0, err
		}
	}
	if blk == 0 {
		return 0, fsapi.ErrNoSpace
	}
	if !(dataLeaf && fs.mech.DataBypass) {
		if err := fs.bzero(t, blk); err != nil {
			return 0, err
		}
	}
	fs.alloc.blockRotor = blk + 1
	return blk, nil
}

// ballocRange scans [lo, hi) for a free block, marking and logging the
// bitmap bit of the first one found. Returns 0 when the range is full.
func (fs *FS) ballocRange(t *kernel.Task, lo, hi uint32) (uint32, error) {
	for b := lo; b < hi; b = (b/layout.BitsPerBlock + 1) * layout.BitsPerBlock {
		if blk, err := fs.ballocBits(t, b, hi); err != nil || blk != 0 {
			return blk, err
		}
	}
	return 0, nil
}

// ballocBits is ballocRange within the one bitmap block that maps lo.
func (fs *FS) ballocBits(t *kernel.Task, lo, hi uint32) (blk uint32, err error) {
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
			data[bit/8] |= 1 << (bit % 8)
			if err := fs.logWrite(t, bh); err != nil {
				return 0, err
			}
			return cur, nil
		}
	}
	return 0, nil
}

// bzero zeroes a freshly allocated block through the log.
func (fs *FS) bzero(t *kernel.Task, blk uint32) (err error) {
	bh, err := fs.sb.BReadNoFill(t, int(blk))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	clear(data)
	return fs.logWrite(t, bh)
}

// bfree releases a data block within the current transaction.
func (fs *FS) bfree(t *kernel.Task, blk uint32) (err error) {
	sb := &fs.super
	if blk < sb.DataStart || blk >= sb.Size {
		return fmt.Errorf("%s: bfree of block %d outside data region: %w", fs.mech.Name, blk, fsapi.ErrInvalid)
	}
	bh, err := fs.sb.BRead(t, int(sb.BitmapBlock(blk)))
	if err != nil {
		return err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return err
	}
	bit := blk % layout.BitsPerBlock
	if data[bit/8]&(1<<(bit%8)) == 0 {
		return fmt.Errorf("%s: double free of block %d: %w", fs.mech.Name, blk, fsapi.ErrCorrupt)
	}
	data[bit/8] &^= 1 << (bit % 8)
	if err := fs.logWrite(t, bh); err != nil {
		return err
	}
	if blk < fs.alloc.blockRotor {
		fs.alloc.blockRotor = blk
	}
	return nil
}

// ialloc allocates a fresh inode of the given type within the current
// transaction and returns it referenced and loaded (unlocked).
func (fs *FS) ialloc(t *kernel.Task, typ uint16) (*Inode, error) {
	sb := &fs.super
	rotor := fs.alloc.inodeRotor
	if rotor < 2 || rotor >= sb.NInodes { // inum 0 is invalid, 1 is the root
		rotor = 2
	}
	try := func(lo, hi uint32) (*Inode, error) {
		for inum := lo; inum < hi; inum++ {
			claimed, err := fs.iclaim(t, inum, typ)
			if err != nil {
				return nil, err
			}
			if !claimed {
				continue
			}
			fs.alloc.inodeRotor = inum + 1
			ip := fs.iget(inum)
			ip.din = layout.Dinode{Type: typ}
			ip.valid = true
			return ip, nil
		}
		return nil, nil
	}
	ip, err := try(rotor, sb.NInodes)
	if err != nil {
		return nil, err
	}
	if ip == nil {
		ip, err = try(2, rotor)
		if err != nil {
			return nil, err
		}
	}
	if ip == nil {
		return nil, fsapi.ErrNoInodes
	}
	return ip, nil
}

// iclaim writes a fresh dinode of type typ over inum, within the current
// transaction, when the inode table holds inum free; it reports whether
// it did.
func (fs *FS) iclaim(t *kernel.Task, inum uint32, typ uint16) (claimed bool, err error) {
	bh, err := fs.sb.BRead(t, int(fs.super.InodeBlock(inum)))
	if err != nil {
		return false, err
	}
	defer drop(bh, &err)
	data, err := bh.Data()
	if err != nil {
		return false, err
	}
	off := layout.InodeOffset(inum)
	if layout.DinodeType(data[off:]) != layout.TypeFree {
		return false, nil
	}
	din := layout.Dinode{Type: typ}
	din.Encode(data[off:])
	if err := fs.logWrite(t, bh); err != nil {
		return false, err
	}
	return true, nil
}

// ifree marks inum free in the inode table; the caller already wrote the
// TypeFree dinode via iupdate, so this only maintains the rotor.
func (fs *FS) ifree(t *kernel.Task, inum uint32) error {
	if inum < fs.alloc.inodeRotor {
		fs.alloc.inodeRotor = inum
	}
	return nil
}
