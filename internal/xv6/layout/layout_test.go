package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/vclock"
)

func TestSuperblockRoundTrip(t *testing.T) {
	sb := Superblock{Magic: Magic, Size: 10000, NBlocks: 9000, NInodes: 512,
		NLog: LogSize, LogStart: 2, InodeStart: 131, BmapStart: 147, DataStart: 150}
	buf := make([]byte, BlockSize)
	sb.Encode(buf)
	got, err := DecodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: %+v != %+v", got, sb)
	}
}

func TestSuperblockBadMagic(t *testing.T) {
	buf := make([]byte, BlockSize)
	if _, err := DecodeSuperblock(buf); err == nil {
		t.Fatal("zero buffer accepted as superblock")
	}
}

func TestDinodeRoundTripProperty(t *testing.T) {
	f := func(typ, nlink uint16, size uint64, a0, a11, ind, dind uint32) bool {
		d := Dinode{Type: typ % 3, Nlink: nlink, Size: size}
		d.Addrs[0] = a0
		d.Addrs[11] = a11
		d.Addrs[IndirectSlot] = ind
		d.Addrs[DIndirectSlot] = dind
		buf := make([]byte, InodeSize)
		d.Encode(buf)
		return DecodeDinode(buf) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirentRoundTrip(t *testing.T) {
	buf := make([]byte, DirentSize)
	for _, name := range []string{"a", "file.txt", strings.Repeat("x", MaxNameLen)} {
		if err := EncodeDirent(Dirent{Ino: 42, Name: name}, buf); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		got := DecodeDirent(buf)
		if got.Ino != 42 || got.Name != name {
			t.Fatalf("round trip %q -> %+v", name, got)
		}
	}
}

func TestDirentNameTooLong(t *testing.T) {
	buf := make([]byte, DirentSize)
	err := EncodeDirent(Dirent{Ino: 1, Name: strings.Repeat("x", MaxNameLen+1)}, buf)
	if err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestLogHeaderRoundTrip(t *testing.T) {
	var h LogHeader
	h.N = 3
	h.Blocks[0], h.Blocks[1], h.Blocks[2] = 100, 200, 300
	buf := make([]byte, BlockSize)
	h.Encode(buf)
	got := DecodeLogHeader(buf)
	if got.N != 3 || got.Blocks[1] != 200 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestLogHeaderCorruptCountTreatedEmpty(t *testing.T) {
	var h LogHeader
	h.N = LogSize + 99
	buf := make([]byte, BlockSize)
	h.Encode(buf)
	if got := DecodeLogHeader(buf); got.N != 0 {
		t.Fatalf("corrupt N=%d not sanitized", got.N)
	}
}

func TestGeometryLayoutOrdering(t *testing.T) {
	sb, err := Geometry(10000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !(sb.LogStart < sb.InodeStart && sb.InodeStart < sb.BmapStart && sb.BmapStart < sb.DataStart) {
		t.Fatalf("regions out of order: %+v", sb)
	}
	if sb.DataStart+sb.NBlocks != sb.Size {
		t.Fatalf("data region does not fill device: %+v", sb)
	}
	if _, err := Geometry(10, 64); err == nil {
		t.Fatal("tiny device accepted")
	}
}

// TestGeometryInodeCounts: an inode count Geometry accepts makes an
// image Fsck passes; one that cannot — no room for the root inode, or a
// table whose size overflows the round-up to whole blocks — is ErrInvalid
// from Geometry and Mkfs alike, before anything is written.
func TestGeometryInodeCounts(t *testing.T) {
	for _, tc := range []struct {
		ninodes uint32
		ok      bool
	}{
		{0, false},
		{1, false},
		{2, true},
		{InodesPerBlock, true},
		{InodesPerBlock + 1, true},
		{math.MaxUint32 - InodesPerBlock + 1, false}, // round-up fits; the table does not
		{math.MaxUint32 - InodesPerBlock + 2, false}, // round-up overflows
		{math.MaxUint32, false},
	} {
		const blocks = 65536
		_, gerr := Geometry(blocks, tc.ninodes)
		dev := blockdev.MustNew(blockdev.Config{Blocks: blocks, Model: costmodel.Fast()})
		clk := vclock.NewClock()
		_, merr := Mkfs(clk, dev, tc.ninodes)
		if !tc.ok {
			if !errors.Is(gerr, fsapi.ErrInvalid) || !errors.Is(merr, fsapi.ErrInvalid) {
				t.Errorf("ninodes=%d: Geometry %v, Mkfs %v; want ErrInvalid from both", tc.ninodes, gerr, merr)
			}
			if w := dev.WriteCmds(); w != 0 {
				t.Errorf("ninodes=%d: rejected Mkfs wrote %d commands", tc.ninodes, w)
			}
			continue
		}
		if gerr != nil || merr != nil {
			t.Errorf("ninodes=%d: Geometry %v, Mkfs %v", tc.ninodes, gerr, merr)
			continue
		}
		rep, err := Fsck(clk, dev)
		if err != nil || !rep.OK() {
			t.Errorf("ninodes=%d: fsck %v %v", tc.ninodes, err, rep.Errors)
		}
	}
}

func TestInodeIndexing(t *testing.T) {
	sb, _ := Geometry(10000, 1024)
	if got := sb.InodeBlock(0); got != sb.InodeStart {
		t.Fatalf("inode 0 in block %d", got)
	}
	if got := sb.InodeBlock(InodesPerBlock); got != sb.InodeStart+1 {
		t.Fatalf("inode %d in block %d", InodesPerBlock, got)
	}
	if got := InodeOffset(1); got != InodeSize {
		t.Fatalf("inode 1 at offset %d", got)
	}
}

func TestMkfsProducesConsistentFS(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Mkfs(clk, dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSuperblock(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("superblock mismatch: %+v vs %+v", got, sb)
	}
	rep, err := Fsck(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fresh fs inconsistent: %v", rep.Errors)
	}
	if rep.Inodes != 1 || rep.Dirs != 1 || rep.Files != 0 {
		t.Fatalf("fresh fs census: %+v", rep)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Mkfs(clk, dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the root inode's nlink.
	buf := make([]byte, BlockSize)
	if err := dev.Read(clk, int(sb.InodeBlock(RootIno)), buf); err != nil {
		t.Fatal(err)
	}
	din := DecodeDinode(buf[InodeOffset(RootIno):])
	din.Nlink = 7
	din.Encode(buf[InodeOffset(RootIno):])
	if err := dev.Write(clk, int(sb.InodeBlock(RootIno)), buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed corrupted nlink")
	}
}

func TestMaxFileSizeCoversFourGB(t *testing.T) {
	if MaxFileSize < 4<<30 {
		t.Fatalf("max file size %d < 4GiB; paper requires 4GB files", MaxFileSize)
	}
}

// TestDirentIsMatchesDecode: the in-place comparison agrees with
// DecodeDirent plus the lookup's test on every record and name a seeded
// generator produces — raw bytes, encoded entries, names that are a
// prefix or an extension of the stored one, the full field, the empty
// name, embedded NULs, free slots.
func TestDirentIsMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	alphabet := []byte("ab\x00")
	randName := func() string {
		b := make([]byte, rng.Intn(MaxNameLen+3))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
			if rng.Intn(4) != 0 {
				b[i] = 'a' + byte(rng.Intn(2))
			}
		}
		return string(b)
	}
	rec := make([]byte, DirentSize)
	matches := 0
	for i := 0; i < 200_000; i++ {
		switch rng.Intn(3) {
		case 0:
			rng.Read(rec)
			for j := 4; j < len(rec); j++ {
				rec[j] = alphabet[rng.Intn(len(alphabet))]
			}
		default:
			stored := randName()
			if len(stored) > MaxNameLen {
				stored = stored[:MaxNameLen]
			}
			if err := EncodeDirent(Dirent{Ino: uint32(rng.Intn(3)), Name: stored}, rec); err != nil {
				t.Fatal(err)
			}
		}
		name := randName()
		if rng.Intn(2) == 0 { // often the stored name itself, or near it
			name = DecodeDirent(rec).Name
			switch rng.Intn(4) {
			case 0:
				name += "a"
			case 1:
				if name != "" {
					name = name[:len(name)-1]
				}
			}
		}
		de := DecodeDirent(rec)
		wantOK := de.Ino != 0 && de.Name == name
		ino, ok := DirentIs(rec, name)
		if ok != wantOK || ok && ino != de.Ino {
			t.Fatalf("record % x, name %q: DirentIs = %d, %v; decoded %+v", rec, name, ino, ok, de)
		}
		if ok {
			matches++
		}
	}
	if matches < 1000 {
		t.Fatalf("only %d matching pairs generated", matches)
	}
}

// TestDinodeTypeMatchesDecode: the one-field read agrees with the full
// decoder.
func TestDinodeTypeMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rec := make([]byte, InodeSize)
	for i := 0; i < 10_000; i++ {
		rng.Read(rec)
		if got, want := DinodeType(rec), DecodeDinode(rec).Type; got != want {
			t.Fatalf("DinodeType = %d, decoded %d", got, want)
		}
	}
}

// fullLogHeaderEncode is LogHeader.Encode as it was: all LogSize slots,
// every time.
func fullLogHeaderEncode(h *LogHeader, buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], h.N)
	for i, b := range h.Blocks {
		le.PutUint32(buf[4+4*i:], b)
	}
}

// TestLogHeaderEncodeMatchesFull: over a seeded sequence of headers that
// grow, shrink, empty and fill the log — each built the way a commit
// builds one, zeros past N — encoding into the buffer the previous header
// left produces, byte for byte, the block the all-slots encoder produces,
// and decodes back to the header.
func TestLogHeaderEncodeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	got, want := make([]byte, BlockSize), make([]byte, BlockSize)
	for i := 0; i < 5000; i++ {
		var h LogHeader
		switch rng.Intn(4) {
		case 0: // the cleared record after an install
		case 1:
			h.N = LogSize
		default:
			h.N = uint32(rng.Intn(LogSize + 1))
		}
		for j := uint32(0); j < h.N; j++ {
			h.Blocks[j] = rng.Uint32()
		}
		h.Encode(got)
		fullLogHeaderEncode(&h, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("header %d (N=%d): short encoding differs from the full one", i, h.N)
		}
		if DecodeLogHeader(got) != h {
			t.Fatalf("header %d (N=%d) does not decode back", i, h.N)
		}
	}
}

// TestFsckRejectsUnknownMagic: Fsck reads xv6 and ext4-variant images,
// and nothing else.
func TestFsckRejectsUnknownMagic(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Mkfs(clk, dev, 256)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for _, magic := range []uint32{Ext4Magic, 0xdeadbeef} {
		sb.Magic = magic
		sb.Encode(buf)
		if err := dev.Write(clk, 1, buf); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(clk, dev)
		if magic == Ext4Magic && (err != nil || !rep.OK()) {
			t.Fatalf("ext4 magic: %v %+v", err, rep)
		}
		if magic != Ext4Magic && err == nil {
			t.Fatalf("magic %#x accepted", magic)
		}
	}
}
