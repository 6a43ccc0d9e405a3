// Package layout defines the xv6 on-disk format shared by the two xv6
// implementations (the Bento version and the C/VFS baseline), mirroring
// how the paper's three xv6 variants share one disk format.
//
// The format is xv6's, adapted as the paper describes (§6.1): 4 KiB
// blocks, and a double-indirect block added so files can reach 4 GiB.
//
//	block 0       | boot block (unused)
//	block 1       | superblock
//	log..         | record block A, log slots, record block B
//	inodestart..  | inode table
//	bmapstart..   | free-block bitmap
//	datastart..   | data blocks
package layout

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"bento/internal/fsapi"
)

// Format constants.
const (
	// Magic identifies an xv6 superblock.
	Magic = 0x10203040
	// Ext4Magic identifies the superblock of an ext4-variant image: this
	// layout, with a larger journal in the log region.
	Ext4Magic = 0xEF53F00D
	// BlockSize is the file-system block size in bytes.
	BlockSize = 4096
	// NDirect is the number of direct block pointers per inode.
	NDirect = 12
	// NIndirect is the number of pointers in an indirect block.
	NIndirect = BlockSize / 4
	// NDIndirect is the number of blocks reachable via the
	// double-indirect pointer (the paper's addition for 4 GiB files).
	NDIndirect = NIndirect * NIndirect
	// MaxFileBlocks is the largest file in blocks.
	MaxFileBlocks = NDirect + NIndirect + NDIndirect
	// MaxFileSize is the largest file in bytes (just over 4 GiB of data
	// pointers; the paper's stated 4 GB target).
	MaxFileSize = int64(MaxFileBlocks) * BlockSize

	// InodeSize is the on-disk inode record size.
	InodeSize = 128
	// InodesPerBlock is how many inodes fit one block.
	InodesPerBlock = BlockSize / InodeSize

	// DirentSize is the on-disk directory entry size.
	DirentSize = 64
	// DirentsPerBlock is how many entries fit one block.
	DirentsPerBlock = BlockSize / DirentSize
	// MaxNameLen is the longest file name (NUL-padded in the record).
	MaxNameLen = DirentSize - 4 - 1

	// LogSize is the size of the log region past its first record block:
	// the log slots and the second record block. LogSize-1 slots bound a
	// committed transaction.
	LogSize = 128
	// MaxOpBlocks is the largest number of blocks one begin_op/end_op
	// transaction may dirty; writes are chunked to respect it.
	MaxOpBlocks = 48

	// BitsPerBlock is how many allocation bits fit one bitmap block.
	BitsPerBlock = BlockSize * 8

	// RootIno is the root directory's inode number.
	RootIno = uint32(fsapi.RootIno)
)

// Inode types, matching xv6's T_DIR/T_FILE.
const (
	TypeFree uint16 = 0
	TypeDir  uint16 = 1
	TypeFile uint16 = 2
)

// Superblock is the on-disk superblock (block 1).
type Superblock struct {
	Magic      uint32
	Size       uint32 // total blocks on device
	NBlocks    uint32 // data blocks
	NInodes    uint32
	NLog       uint32 // log blocks past LogStart: the slots and record block B
	LogStart   uint32 // block number of record block A
	InodeStart uint32
	BmapStart  uint32
	DataStart  uint32
}

// Encode writes the superblock into a block-sized buffer.
func (s *Superblock) Encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], s.Magic)
	le.PutUint32(buf[4:], s.Size)
	le.PutUint32(buf[8:], s.NBlocks)
	le.PutUint32(buf[12:], s.NInodes)
	le.PutUint32(buf[16:], s.NLog)
	le.PutUint32(buf[20:], s.LogStart)
	le.PutUint32(buf[24:], s.InodeStart)
	le.PutUint32(buf[28:], s.BmapStart)
	le.PutUint32(buf[32:], s.DataStart)
}

// DecodeSuperblock parses an xv6 superblock, validating the magic.
func DecodeSuperblock(buf []byte) (Superblock, error) { return DecodeSuperblockAs(buf, Magic) }

// DecodeSuperblockAs parses a superblock whose magic must be magic.
func DecodeSuperblockAs(buf []byte, magic uint32) (Superblock, error) {
	le := binary.LittleEndian
	s := Superblock{
		Magic:      le.Uint32(buf[0:]),
		Size:       le.Uint32(buf[4:]),
		NBlocks:    le.Uint32(buf[8:]),
		NInodes:    le.Uint32(buf[12:]),
		NLog:       le.Uint32(buf[16:]),
		LogStart:   le.Uint32(buf[20:]),
		InodeStart: le.Uint32(buf[24:]),
		BmapStart:  le.Uint32(buf[28:]),
		DataStart:  le.Uint32(buf[32:]),
	}
	if s.Magic != magic {
		return Superblock{}, fmt.Errorf("layout: bad magic %#x: %w", s.Magic, fsapi.ErrCorrupt)
	}
	return s, nil
}

// Dinode is the on-disk inode. Addrs holds NDirect direct pointers, one
// indirect pointer, and one double-indirect pointer.
type Dinode struct {
	Type  uint16
	Nlink uint16
	Size  uint64
	Addrs [NDirect + 2]uint32
}

// IndirectSlot and DIndirectSlot index Addrs.
const (
	IndirectSlot  = NDirect
	DIndirectSlot = NDirect + 1
)

// Encode writes the inode at off within an inode block buffer.
func (d *Dinode) Encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint16(buf[0:], d.Type)
	le.PutUint16(buf[2:], d.Nlink)
	le.PutUint64(buf[8:], d.Size)
	for i, a := range d.Addrs {
		le.PutUint32(buf[16+4*i:], a)
	}
}

// DecodeDinode parses an inode record.
func DecodeDinode(buf []byte) Dinode {
	le := binary.LittleEndian
	var d Dinode
	d.Type = le.Uint16(buf[0:])
	d.Nlink = le.Uint16(buf[2:])
	d.Size = le.Uint64(buf[8:])
	for i := range d.Addrs {
		d.Addrs[i] = le.Uint32(buf[16+4*i:])
	}
	return d
}

// InodeBlock returns the block number holding inode inum.
func (s *Superblock) InodeBlock(inum uint32) uint32 {
	return s.InodeStart + inum/InodesPerBlock
}

// InodeOffset returns inum's byte offset within its block.
func InodeOffset(inum uint32) int {
	return int(inum%InodesPerBlock) * InodeSize
}

// BitmapBlock returns the bitmap block covering data block b.
func (s *Superblock) BitmapBlock(b uint32) uint32 {
	return s.BmapStart + b/BitsPerBlock
}

// Dirent is one directory entry. Ino == 0 marks a free slot.
type Dirent struct {
	Ino  uint32
	Name string
}

// EncodeDirent writes the entry into a DirentSize-byte record.
func EncodeDirent(d Dirent, buf []byte) error {
	if len(d.Name) > MaxNameLen {
		return fmt.Errorf("layout: name %q: %w", d.Name, fsapi.ErrNameTooLong)
	}
	binary.LittleEndian.PutUint32(buf[0:], d.Ino)
	n := copy(buf[4:4+MaxNameLen], d.Name)
	clear(buf[4+n : DirentSize])
	return nil
}

// DirentIs reports whether the directory record holds a live entry named
// name, and the entry's inode: DecodeDirent followed by the comparison a
// lookup makes, done in place — no Dirent, no string per scanned record.
func DirentIs(rec []byte, name string) (ino uint32, ok bool) {
	ino = binary.LittleEndian.Uint32(rec[0:])
	n := len(name)
	if ino == 0 || n > MaxNameLen || string(rec[4:4+n]) != name {
		return 0, false
	}
	// The stored name ends at its first NUL (or fills the field): it is
	// name only if it stops where name does and name has no NUL inside.
	if n < MaxNameLen && rec[4+n] != 0 || strings.IndexByte(name, 0) >= 0 {
		return 0, false
	}
	return ino, true
}

// DinodeType reports the Type field of an inode record without decoding
// the rest of it: what an allocation scan looks at.
func DinodeType(rec []byte) uint16 {
	return binary.LittleEndian.Uint16(rec[0:])
}

// DecodeDirent parses a directory record.
func DecodeDirent(buf []byte) Dirent {
	ino := binary.LittleEndian.Uint32(buf[0:])
	name := buf[4 : 4+MaxNameLen]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return Dirent{Ino: ino, Name: string(name[:end])}
}

// The log region: NLog blocks after the record block at LogStart. Its
// last block, LogStart+NLog, is the second record block, and the blocks
// between are the log's LogSlots() slots, slot i at LogStart+1+i. Two
// record blocks let a commit write its record while the previous
// transaction's checkpoint still has to clear its own, as jbd2's
// per-transaction commit blocks do.
//
// A commit record, in either record block: a little-endian count n, then
// the n home block numbers; in the block's third-to-last word the
// checksum of the transaction's logged blocks (CommitSum); in its
// second-to-last word the commit's sequence number; and in its last word
// the first log slot the transaction occupies, log slot first+i going
// home to entry i. The rest of the block is zeros. A log of nslots slots
// holds records whose slots first..first+n-1 lie inside it. The last
// three words are past the entries of any log up to 1 020 slots (ext4's
// 1 019 entries end at byte 4 080). The cleared record is all zeros: no
// blocks, slot 0, sequence 0. The checksum lets a commit write its record
// beside its slots, with no barrier between them: recovery replays, in
// sequence order, the valid records of the two blocks whose checksums
// match their slots, and a record whose slots did not all reach the disk
// reads as uncommitted.

// RecordBlocks returns the log's two record blocks: LogStart, and the
// log region's last block.
func (s *Superblock) RecordBlocks() [2]uint32 {
	return [2]uint32{s.LogStart, s.LogStart + s.NLog}
}

// LogSlots returns how many log slots the log region holds: NLog less
// the second record block.
func (s *Superblock) LogSlots() uint32 { return s.NLog - 1 }

// EncodeCommitRecord writes the record of commit seq, for blocks logged
// from slot first on with checksum sum (nil is the cleared record, at
// slot 0 and sequence 0, with sum 0), into buf, a record block's buffer,
// which holds zeros or an earlier record of the same log. It clears only
// the entries that record had beyond len(blocks), not the whole block.
func EncodeCommitRecord(buf []byte, seq, first uint32, blocks []uint32, sum, nslots uint32) {
	le := binary.LittleEndian
	prev := min(le.Uint32(buf), nslots)
	n := uint32(len(blocks))
	le.PutUint32(buf, n)
	for i, b := range blocks {
		le.PutUint32(buf[4+4*i:], b)
	}
	if prev > n {
		clear(buf[4+4*n : 4+4*prev])
	}
	le.PutUint32(buf[len(buf)-12:], sum)
	le.PutUint32(buf[len(buf)-8:], seq)
	le.PutUint32(buf[len(buf)-4:], first)
}

// DecodeCommitRecord returns the sequence number, the first log slot and
// the home blocks of the commit record in buf, a record block of a log
// of nslots slots. A record whose slots run past nslots, or whose
// entries would run into its last three words, is corrupt and reads as an
// empty record. RecordSum reads its checksum.
func DecodeCommitRecord(buf []byte, nslots uint32) (seq, first uint32, blocks []uint32) {
	le := binary.LittleEndian
	n, first := le.Uint32(buf), le.Uint32(buf[len(buf)-4:])
	if n > nslots || first > nslots-n || n > uint32(len(buf)/4-4) {
		return 0, 0, nil
	}
	blocks = make([]uint32, n)
	for i := range blocks {
		blocks[i] = le.Uint32(buf[4+4*i:])
	}
	return le.Uint32(buf[len(buf)-8:]), first, blocks
}

// RecordSum returns the checksum the commit record in buf carries.
func RecordSum(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[len(buf)-12:]) }

// castagnoli is the CRC32C table of the log's checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockSum returns the CRC32C of a logged block's contents.
func BlockSum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CommitSum folds sum, the BlockSum of a transaction's next logged block
// in slot order, into acc, the checksum of the blocks before it (0 before
// the first): a record's checksum is the CRC32C of its blocks' sums, each
// little-endian. It is crc32.Update over those four bytes, table-driven so
// that it allocates nothing.
func CommitSum(acc, sum uint32) uint32 {
	crc := ^acc
	for i := 0; i < 4; i++ {
		crc = castagnoli[byte(crc)^byte(sum>>(8*i))] ^ crc>>8
	}
	return ^crc
}

// SeqBefore reports whether sequence number a comes before b. The
// numbers wrap, and the valid records on a log are consecutive commits,
// so the order is the sign of the difference.
func SeqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// A SlotRange is the log slots First..First+N-1 of one transaction.
type SlotRange struct{ First, N uint32 }

// PlaceSlots returns the first log slot for a transaction of n blocks in
// a log of nslots slots whose ranges live still hold committed
// transactions being checkpointed: the lowest of slot 0 and the slots
// right after each live range where the transaction overlaps no live
// range and ends inside the log. ok is false when it fits nowhere, and
// the transaction must wait out a checkpoint.
func PlaceSlots(n uint32, live []SlotRange, nslots uint32) (first uint32, ok bool) {
	first = nslots
	for i := -1; i < len(live); i++ {
		var c uint32
		if i >= 0 {
			c = live[i].First + live[i].N
		}
		if c < first && n <= nslots-c && !overlapsAny(c, n, live) {
			first = c
		}
	}
	if first == nslots {
		return 0, false
	}
	return first, true
}

// overlapsAny reports whether slots c..c+n-1 overlap any of ranges.
func overlapsAny(c, n uint32, ranges []SlotRange) bool {
	for _, r := range ranges {
		if c < r.First+r.N && r.First < c+n {
			return true
		}
	}
	return false
}

// Geometry computes a superblock for a device of size blocks with room
// for ninodes inodes. Inode numbers start at 0, which is never used, so
// the table needs at least 2 entries to hold the root (inode 1).
func Geometry(size, ninodes uint32) (Superblock, error) {
	if size < 64 {
		return Superblock{}, fmt.Errorf("layout: device too small (%d blocks): %w", size, fsapi.ErrInvalid)
	}
	if ninodes <= RootIno {
		return Superblock{}, fmt.Errorf("layout: %d inodes leave no room for the root inode: %w", ninodes, fsapi.ErrInvalid)
	}
	if ninodes > math.MaxUint32-(InodesPerBlock-1) {
		return Superblock{}, fmt.Errorf("layout: %d inodes overflow the inode-table size: %w", ninodes, fsapi.ErrInvalid)
	}
	ninodeBlocks := (ninodes + InodesPerBlock - 1) / InodesPerBlock
	logBlocks := uint32(LogSize + 1) // record block + slots + record block
	// Bitmap must cover the whole device (simplest, like xv6).
	bmapBlocks := (size + BitsPerBlock - 1) / BitsPerBlock
	meta := 2 + logBlocks + ninodeBlocks + bmapBlocks
	if meta >= size {
		return Superblock{}, fmt.Errorf("layout: metadata (%d) exceeds device (%d): %w", meta, size, fsapi.ErrInvalid)
	}
	return Superblock{
		Magic:      Magic,
		Size:       size,
		NBlocks:    size - meta,
		NInodes:    ninodes,
		NLog:       uint32(LogSize),
		LogStart:   2,
		InodeStart: 2 + logBlocks,
		BmapStart:  2 + logBlocks + ninodeBlocks,
		DataStart:  meta,
	}, nil
}
