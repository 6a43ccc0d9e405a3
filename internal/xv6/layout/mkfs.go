package layout

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/vclock"
)

// Mkfs formats dev with a fresh xv6 file system: superblock, empty log,
// inode table containing only the root directory, and a bitmap covering
// the metadata region plus the root directory's data block. It writes
// through the raw device and flushes, like the userspace mkfs tool xv6
// ships.
func Mkfs(clk *vclock.Clock, dev *blockdev.Device, ninodes uint32) (Superblock, error) {
	sb, err := Geometry(uint32(dev.Blocks()), ninodes)
	if err != nil {
		return Superblock{}, err
	}
	buf := make([]byte, BlockSize)
	sb.Encode(buf)
	if err := Format(clk, dev, sb, buf); err != nil {
		return Superblock{}, err
	}
	return sb, nil
}

// Format writes a fresh file system with geometry sb to dev: super (the
// encoded superblock block, which Format then reuses as scratch) at block
// 1, two cleared commit records, the inode table holding only the root
// directory, the root directory's "." and "..", and a bitmap marking the
// metadata region and the root's data block in use; then it flushes.
// Every file system on this format shares it; only the superblock
// encoding is theirs.
func Format(clk *vclock.Clock, dev *blockdev.Device, sb Superblock, super []byte) error {
	if dev.BlockSize() != BlockSize {
		return fmt.Errorf("layout: device block size %d != %d: %w", dev.BlockSize(), BlockSize, fsapi.ErrInvalid)
	}
	// Record block B's cleared record is submitted first and not waited
	// for: it overlaps the superblock's write, and the closing FLUSH makes
	// it durable with the rest.
	rb := sb.RecordBlocks()
	if _, err := dev.Submit(clk, int(rb[1]), make([]byte, BlockSize)); err != nil {
		return err
	}
	buf := super
	if err := dev.Write(clk, 1, buf); err != nil {
		return err
	}

	// Record block A's cleared record.
	clear(buf)
	if err := dev.Write(clk, int(rb[0]), buf); err != nil {
		return err
	}

	// Zero the inode table, then install the root inode.
	clear(buf)
	for b := sb.InodeStart; b < sb.BmapStart; b++ {
		if err := dev.Write(clk, int(b), buf); err != nil {
			return err
		}
	}
	rootDataBlk := sb.DataStart
	root := Dinode{Type: TypeDir, Nlink: 2, Size: 2 * DirentSize}
	root.Addrs[0] = rootDataBlk
	clear(buf)
	root.Encode(buf[InodeOffset(RootIno):])
	if err := dev.Write(clk, int(sb.InodeBlock(RootIno)), buf); err != nil {
		return err
	}

	// Root directory data: "." and ".." point at the root itself.
	clear(buf)
	if err := EncodeDirent(Dirent{Ino: RootIno, Name: "."}, buf[0:DirentSize]); err != nil {
		return err
	}
	if err := EncodeDirent(Dirent{Ino: RootIno, Name: ".."}, buf[DirentSize:2*DirentSize]); err != nil {
		return err
	}
	if err := dev.Write(clk, int(rootDataBlk), buf); err != nil {
		return err
	}

	// Bitmap: everything below DataStart is metadata and always "in use";
	// the root data block is the first allocated data block.
	used := func(b uint32) bool { return b <= rootDataBlk }
	bmapBlocks := (sb.Size + BitsPerBlock - 1) / BitsPerBlock
	for i := uint32(0); i < bmapBlocks; i++ {
		clear(buf)
		base := i * BitsPerBlock
		for bit := uint32(0); bit < BitsPerBlock && base+bit < sb.Size; bit++ {
			if used(base + bit) {
				buf[bit/8] |= 1 << (bit % 8)
			}
		}
		if err := dev.Write(clk, int(sb.BmapStart+i), buf); err != nil {
			return err
		}
	}
	return dev.Flush(clk)
}

// ReadSuperblock loads and validates the superblock from dev: an xv6
// image's or an ext4-variant image's.
func ReadSuperblock(clk *vclock.Clock, dev *blockdev.Device) (Superblock, error) {
	buf := make([]byte, BlockSize)
	if err := dev.Read(clk, 1, buf); err != nil {
		return Superblock{}, err
	}
	if sb, err := DecodeSuperblockAs(buf, Ext4Magic); err == nil {
		return sb, nil
	}
	return DecodeSuperblock(buf)
}
