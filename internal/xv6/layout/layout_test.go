package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
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

// TestLogHeaderRoundTrip: a commit record decodes back to its sequence
// number, its first slot and its blocks in a log of any capacity that
// holds it, up to a full record of a log the size of ext4's journal,
// whose last entry ends 8 bytes short of the checksum, and a record at
// the last slot of that log.
func TestLogHeaderRoundTrip(t *testing.T) {
	buf := make([]byte, BlockSize)
	for _, c := range []struct{ seq, first, n, nslots uint32 }{
		{1, 0, 3, LogSize - 1}, {2, LogSize - 4, 3, LogSize - 1}, {3, 0, LogSize - 1, LogSize - 1},
		{1 << 31, 17, 200, 1019}, {math.MaxUint32, 0, 1019, 1019}, {7, 1018, 1, 1019},
	} {
		blocks := make([]uint32, c.n)
		for i := range blocks {
			blocks[i] = 100 + uint32(i)*7
		}
		EncodeCommitRecord(buf, c.seq, c.first, blocks, c.seq^0x5a5a, c.nslots)
		if seq, first, got := DecodeCommitRecord(buf, c.nslots); seq != c.seq || first != c.first || !slices.Equal(got, blocks) || RecordSum(buf) != c.seq^0x5a5a {
			t.Fatalf("record %d, %d of %d entries from slot %d: round trip gave record %d, %d entries from slot %d, sum %#x",
				c.seq, c.n, c.nslots, c.first, seq, len(got), first, RecordSum(buf))
		}
	}
}

// TestLogHeaderCorruptCountTreatedEmpty: a record whose slots run past
// the log's capacity is corrupt and reads as an empty log — but only past
// this log's capacity: a 200-entry record is corrupt in a 127-slot log
// and whole in ext4's 1019-slot one, where it is corrupt again from slot
// 820 on. A count whose entries would reach the checksum is corrupt
// whatever capacity the caller names; 1 020 entries still fit.
func TestLogHeaderCorruptCountTreatedEmpty(t *testing.T) {
	buf := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(buf, 1019+99)
	if seq, first, got := DecodeCommitRecord(buf, 1019); seq != 0 || first != 0 || got != nil {
		t.Fatalf("corrupt count 1118 read as record %d, %d entries from slot %d", seq, len(got), first)
	}
	binary.LittleEndian.PutUint32(buf, 1021)
	if _, _, got := DecodeCommitRecord(buf, math.MaxUint32); got != nil {
		t.Fatalf("count 1021 in a block of 1020 entries read as %d entries", len(got))
	}
	binary.LittleEndian.PutUint32(buf, 1020)
	if _, _, got := DecodeCommitRecord(buf, math.MaxUint32); len(got) != 1020 {
		t.Fatalf("count 1020 in a block of 1020 entries read as %d entries", len(got))
	}
	for _, c := range []struct {
		first, nslots uint32
		want          int
	}{{0, LogSize - 1, 0}, {0, 1019, 200}, {819, 1019, 200}, {820, 1019, 0}, {1 << 31, 1019, 0}} {
		EncodeCommitRecord(buf, 5, c.first, make([]uint32, 200), 0, 1019)
		if _, first, got := DecodeCommitRecord(buf, c.nslots); len(got) != c.want || (c.want == 0 && first != 0) {
			t.Fatalf("200 entries from slot %d in a %d-slot log read as %d entries from slot %d, want %d",
				c.first, c.nslots, len(got), first, c.want)
		}
	}
}

// TestLogHeaderOldRecordAtSlotZero: a record written before the record
// named its first slot, its sequence and its checksum — zeros in the
// block's last three words — and the cleared record both read as starting at slot 0, and
// clearing a record placed past slot 0 leaves the zeros a freshly
// formatted record block holds.
func TestLogHeaderOldRecordAtSlotZero(t *testing.T) {
	buf := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(buf, 2)
	binary.LittleEndian.PutUint32(buf[4:], 40)
	binary.LittleEndian.PutUint32(buf[8:], 41)
	if seq, first, got := DecodeCommitRecord(buf, LogSize-1); seq != 0 || first != 0 || !slices.Equal(got, []uint32{40, 41}) {
		t.Fatalf("old record read as %v from slot %d in record %d, want [40 41] from slot 0 in record 0", got, first, seq)
	}
	EncodeCommitRecord(buf, 12, 9, []uint32{40, 41}, 0xfeed, LogSize-1)
	EncodeCommitRecord(buf, 0, 0, nil, 0, LogSize-1)
	if _, first, got := DecodeCommitRecord(buf, LogSize-1); first != 0 || len(got) != 0 {
		t.Fatalf("cleared record read as %d entries from slot %d", len(got), first)
	}
	if !bytes.Equal(buf, make([]byte, BlockSize)) {
		t.Fatal("the cleared record is not all zeros")
	}
}

// TestSeqBefore: sequence numbers order by their difference, across the
// wrap.
func TestSeqBefore(t *testing.T) {
	for _, c := range []struct {
		a, b uint32
		want bool
	}{{1, 2, true}, {2, 1, false}, {5, 5, false}, {math.MaxUint32, 0, true}, {0, math.MaxUint32, false}} {
		if got := SeqBefore(c.a, c.b); got != c.want {
			t.Errorf("SeqBefore(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestPlaceBeside: a transaction goes to the lowest of slot 0 and the
// slot right after each range still being checkpointed where it overlaps
// none of them and ends inside the log, and nowhere when no such slot
// exists. With no range it goes to slot 0.
func TestPlaceBeside(t *testing.T) {
	const nslots = LogSize - 1
	type r = SlotRange
	for _, c := range []struct {
		n     uint32
		live  []SlotRange
		first uint32
		ok    bool
	}{
		{3, nil, 0, true},
		{nslots, nil, 0, true},
		{3, []r{{0, 4}}, 4, true},
		{3, []r{{5, 4}}, 0, true},
		{5, []r{{5, 4}}, 0, true},
		{6, []r{{5, 4}}, 9, true},
		{118, []r{{5, 4}}, 9, true},
		{119, []r{{5, 4}}, 0, false},
		{1, []r{{0, nslots}}, 0, false},
		// Two ranges: below both, between them, after both.
		{2, []r{{4, 4}, {10, 4}}, 0, true},
		{5, []r{{4, 4}, {10, 4}}, 14, true},
		{2, []r{{0, 4}, {10, 4}}, 4, true},
		{2, []r{{10, 4}, {0, 4}}, 4, true},
		{7, []r{{0, 4}, {10, 4}}, 14, true},
		{nslots - 13, []r{{0, 4}, {10, 4}}, 0, false},
		{nslots - 14, []r{{10, 4}, {0, 4}}, 14, true},
	} {
		if first, ok := PlaceSlots(c.n, c.live, nslots); first != c.first || ok != c.ok {
			t.Errorf("PlaceSlots(%d, %v, %d) = %d, %v; want %d, %v", c.n, c.live, nslots, first, ok, c.first, c.ok)
		}
	}
}

// TestRecordBlocks: the second record block is the log region's last
// block, right before the inode table, and the slots lie between the
// two.
func TestRecordBlocks(t *testing.T) {
	sb, err := Geometry(10000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rb := sb.RecordBlocks()
	if rb[0] != sb.LogStart || rb[1] != sb.InodeStart-1 || rb[1] != sb.LogStart+1+sb.LogSlots() {
		t.Fatalf("record blocks %v, slots %d from %d, inode table at %d", rb, sb.LogSlots(), sb.LogStart+1, sb.InodeStart)
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

// TestFsckFlagsRecordInEitherBlock: an unrecovered commit record makes
// the image fail the check, in record block A and in record block B.
func TestFsckFlagsRecordInEitherBlock(t *testing.T) {
	for i := range 2 {
		dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
		clk := vclock.NewClock()
		sb, err := Mkfs(clk, dev, 256)
		if err != nil {
			t.Fatal(err)
		}
		blk := sb.RecordBlocks()[i]
		buf := make([]byte, BlockSize)
		EncodeCommitRecord(buf, 1, 0, []uint32{sb.DataStart}, 0, sb.LogSlots())
		if err := dev.Write(clk, int(blk), buf); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(clk, dev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Errorf("fsck passed an image with a record in block %d", blk)
		}
	}
}

// TestMkfsClearsBothRecords: formatting a device that held a record in
// either record block, as a reused device may, leaves no record behind.
func TestMkfsClearsBothRecords(t *testing.T) {
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: costmodel.Fast()})
	clk := vclock.NewClock()
	sb, err := Geometry(2048, 256)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	EncodeCommitRecord(buf, 1, 0, []uint32{sb.DataStart}, 0, sb.LogSlots())
	for _, blk := range sb.RecordBlocks() {
		if err := dev.Write(clk, int(blk), buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Mkfs(clk, dev, 256); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after formatting over two records: %v", rep.Errors)
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

// fullLogHeaderEncode encodes blocks the simple way: the count, then
// all nlog slots, zeros past the count, and the checksum, the sequence
// and the first slot in the last three words, every time.
func fullLogHeaderEncode(seq, first uint32, blocks []uint32, sum, nslots uint32, buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(len(blocks)))
	for i := uint32(0); i < nslots; i++ {
		var b uint32
		if i < uint32(len(blocks)) {
			b = blocks[i]
		}
		le.PutUint32(buf[4+4*i:], b)
	}
	le.PutUint32(buf[len(buf)-12:], sum)
	le.PutUint32(buf[len(buf)-8:], seq)
	le.PutUint32(buf[len(buf)-4:], first)
}

// TestLogHeaderEncodeMatchesFull: over seeded sequences of records that
// grow, shrink, empty and fill a 127-slot log and ext4's 1019-slot one,
// encoding into the buffer the previous record left produces, byte for
// byte, the block the all-slots encoder produces, and decodes back to
// the record.
func TestLogHeaderEncodeMatchesFull(t *testing.T) {
	for _, nslots := range []uint32{LogSize - 1, 1019} {
		rng := rand.New(rand.NewSource(22))
		got, want := make([]byte, BlockSize), make([]byte, BlockSize)
		for i := 0; i < 5000; i++ {
			var n, seq uint32
			switch rng.Intn(4) {
			case 0: // the cleared record after an install
			case 1:
				n = nslots
			default:
				n = uint32(rng.Intn(int(nslots) + 1))
			}
			blocks := make([]uint32, n)
			for j := range blocks {
				blocks[j] = rng.Uint32()
			}
			var first uint32
			if n > 0 {
				first, seq = uint32(rng.Intn(int(nslots-n)+1)), rng.Uint32()
			}
			sum := seq * 31
			EncodeCommitRecord(got, seq, first, blocks, sum, nslots)
			fullLogHeaderEncode(seq, first, blocks, sum, nslots, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("log of %d, record %d (n=%d): short encoding differs from the full one", nslots, i, n)
			}
			if q, f, b := DecodeCommitRecord(got, nslots); q != seq || f != first || !slices.Equal(b, blocks) || RecordSum(got) != sum {
				t.Fatalf("log of %d, record %d (n=%d from slot %d) does not decode back", nslots, i, n, first)
			}
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

// TestCommitSumIsCRC32C: folding blocks' sums one at a time is the
// CRC32C of their little-endian bytes, whatever the running value.
func TestCommitSumIsCRC32C(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var acc uint32
	var buf []byte
	for i := 0; i < 100; i++ {
		s := BlockSum([]byte{byte(i), byte(rng.Intn(256))})
		acc = CommitSum(acc, s)
		buf = binary.LittleEndian.AppendUint32(buf, s)
		if want := crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)); acc != want {
			t.Fatalf("after %d sums: CommitSum gave %#x, CRC32C of their bytes is %#x", i+1, acc, want)
		}
	}
}
