package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// image builds a BIMG file: the header, then each record as written.
func image(blocks, blockSize uint32, records ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteString("BIMG")
	binary.Write(&b, binary.LittleEndian, blocks)
	binary.Write(&b, binary.LittleEndian, blockSize)
	for _, r := range records {
		b.Write(r)
	}
	return b.Bytes()
}

// record is block blk holding data, padded with zeros to a block.
func record(blk uint32, data []byte) []byte {
	r := binary.LittleEndian.AppendUint32(nil, blk)
	return append(r, append(data, make([]byte, layout.BlockSize-len(data))...)...)
}

// mkfsImage is a clean image of a freshly formatted 256-block device.
func mkfsImage(t *testing.T) []byte {
	t.Helper()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 256, Model: costmodel.Default()})
	clk := vclock.NewClock()
	if _, err := layout.Mkfs(clk, dev, 64); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	buf := make([]byte, layout.BlockSize)
	for b := 0; b < dev.Blocks(); b++ {
		if err := dev.Read(clk, b, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			recs = append(recs, record(uint32(b), buf))
		}
	}
	return image(256, layout.BlockSize, recs...)
}

// TestMalformedImagesExitOne runs fsck on crafted images: every malformed
// one must exit 1 with an "fsck:" message on stderr — no panic — and the
// clean one 0.
func TestMalformedImagesExitOne(t *testing.T) {
	clean := mkfsImage(t)
	cases := []struct {
		name   string
		img    []byte
		extra  []string // arguments after the image path
		status int
		stderr string
	}{
		{"clean", clean, nil, 0, ""},
		{"zero blocks", image(0, layout.BlockSize), nil, 1, "block count 0"},
		{"zero blocks with a record", image(0, layout.BlockSize, record(0, nil)), nil, 1, "block count 0"},
		{"block size 512", image(256, 512), nil, 1, "block size 512"},
		{"block size 0", image(256, 0), nil, 1, "block size 0"},
		{"block size huge", image(1, 1<<31), nil, 1, "block size"},
		{"record past the end", image(256, layout.BlockSize, record(256, nil)), nil, 1, "past the image"},
		{"record at max block", image(4, layout.BlockSize, record(^uint32(0), nil)), nil, 1, "past the image"},
		{"truncated record header", append(image(256, layout.BlockSize), 1, 0), nil, 1, "truncated record header"},
		{"truncated record data", image(256, layout.BlockSize, record(1, nil)[:100]), nil, 1, "truncated record for block 1"},
		{"not an image", []byte("GIF89a"), nil, 1, "not a bento disk image"},
		{"empty file", nil, nil, 1, "not a bento disk image"},
		{"no superblock", image(256, layout.BlockSize), nil, 1, "fsck:"},
		{"two arguments", clean, []string{"other.img"}, 1, "usage"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".img")
			if err := os.WriteFile(path, c.img, 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			status := run(append([]string{path}, c.extra...), &stdout, &stderr)
			if status != c.status {
				t.Fatalf("exit %d, want %d (stdout %q, stderr %q)", status, c.status, stdout.String(), stderr.String())
			}
			if c.stderr != "" && (!strings.HasPrefix(stderr.String(), "fsck:") || !strings.Contains(stderr.String(), c.stderr)) {
				t.Errorf("stderr %q, want an fsck: message containing %q", stderr.String(), c.stderr)
			}
			if c.status == 0 && !strings.Contains(stdout.String(), "fsck: clean") {
				t.Errorf("stdout %q, want fsck: clean", stdout.String())
			}
		})
	}
}
