// Package layout defines the xv6 on-disk format shared by the two xv6
// implementations (the Bento version and the C/VFS baseline), mirroring
// how the paper's three xv6 variants share one disk format.
//
// The format is xv6's, adapted as the paper describes (§6.1): 4 KiB
// blocks, and a double-indirect block added so files can reach 4 GiB.
//
//	block 0       | boot block (unused)
//	block 1       | superblock
//	log..         | log header + log data blocks
//	inodestart..  | inode table
//	bmapstart..   | free-block bitmap
//	datastart..   | data blocks
package layout

import (
	"encoding/binary"
	"fmt"
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

	// LogSize is the number of log data blocks (the log header block is
	// separate). It bounds a committed transaction.
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
	NLog       uint32 // log data blocks
	LogStart   uint32 // block number of log header
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

// LogHeader is the commit record at LogStart. N is the number of valid
// entries; Blocks[i] is the home location of log data block i.
type LogHeader struct {
	N      uint32
	Blocks [LogSize]uint32
}

// Encode writes the header into a block buffer that holds zeros or an
// earlier header written by Encode — the log's header buffer, which sees
// two of these per commit. It writes N and the N valid entries and clears
// the entries the previous header had beyond them, instead of all LogSize
// slots; Blocks past N are not looked at (a header built for a commit has
// zeros there, which is what the buffer then holds too).
func (h *LogHeader) Encode(buf []byte) {
	le := binary.LittleEndian
	prev := min(le.Uint32(buf[0:]), LogSize)
	n := min(h.N, LogSize)
	le.PutUint32(buf[0:], h.N)
	for i, b := range h.Blocks[:n] {
		le.PutUint32(buf[4+4*i:], b)
	}
	if prev > n {
		clear(buf[4+4*n : 4+4*prev])
	}
}

// DecodeLogHeader parses a log header block.
func DecodeLogHeader(buf []byte) LogHeader {
	le := binary.LittleEndian
	var h LogHeader
	h.N = le.Uint32(buf[0:])
	if h.N > LogSize {
		h.N = 0 // corrupt header: treat as empty log
	}
	for i := range h.Blocks {
		h.Blocks[i] = le.Uint32(buf[4+4*i:])
	}
	return h
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
	logBlocks := uint32(LogSize + 1) // header + data
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
