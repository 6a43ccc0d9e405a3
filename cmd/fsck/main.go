// fsck checks an image produced by cmd/mkfs (or any tool using the same
// sparse "BIMG" format) for xv6 metadata consistency.
//
// Usage:
//
//	fsck [disk.img]    # default: disk.img
//
// The image is loaded into a simulated device and handed to
// layout.Fsck, the structural checker: superblock sanity, inode type
// and link-count validity, directory tree connectivity, block
// ownership (no double allocation, no use of free blocks), bitmap
// agreement, and an empty — i.e. fully recovered — journal. A summary
// line prints; each inconsistency prints as an ERROR and the exit status
// is nonzero unless the image is clean. An image that cannot be loaded —
// not BIMG, a block size other than 4096, 0 blocks, a record past the
// last block or cut short — exits 1 with an "fsck:" message instead.
//
// fsck assumes the log has already been recovered (mounting replays
// it); an image written mid-commit shows up as a non-empty-log error
// here, not silent corruption. The same checker is the structural leg
// of the crash-point fuzzer (internal/crashtort), which runs it after
// every simulated power cut — see docs/upgrade-and-crash.md.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run checks the image args names and returns the exit status: 0 clean,
// 1 for an image that is unreadable, malformed or inconsistent, 2 for a
// bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() > 1 {
		fmt.Fprintln(stderr, "fsck: usage: fsck [disk.img]")
		return 1
	}
	path := "disk.img"
	if fl.NArg() > 0 {
		path = fl.Arg(0)
	}
	clk := vclock.NewClock()
	dev, err := load(clk, path)
	if err != nil {
		fmt.Fprintln(stderr, "fsck:", err)
		return 1
	}
	rep, err := layout.Fsck(clk, dev)
	if err != nil {
		fmt.Fprintln(stderr, "fsck:", err)
		return 1
	}
	fmt.Fprintf(stdout, "fsck: %d inodes (%d dirs, %d files), %d/%d blocks used\n",
		rep.Inodes, rep.Dirs, rep.Files, rep.UsedBlocks, rep.TotalBlocks)
	if !rep.OK() {
		for _, e := range rep.Errors {
			fmt.Fprintln(stdout, "  ERROR:", e)
		}
		return 1
	}
	fmt.Fprintln(stdout, "fsck: clean")
	return 0
}

// load reads a BIMG image into a fresh device: a 12-byte header ("BIMG",
// the block count and the block size, little-endian uint32s), then
// records of a little-endian uint32 block number followed by that
// block's bytes. The header must name layout.BlockSize and a count in
// 1..2^32-1, and every record a block below the count, whole.
func load(clk *vclock.Clock, path string) (*blockdev.Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:4]) != "BIMG" {
		return nil, errors.New("not a bento disk image")
	}
	blocks := binary.LittleEndian.Uint32(hdr[4:])
	bs := binary.LittleEndian.Uint32(hdr[8:])
	if bs != layout.BlockSize {
		return nil, fmt.Errorf("image block size %d, want %d", bs, layout.BlockSize)
	}
	if blocks == 0 { // the uint32 field bounds it above by 2^32-1
		return nil, errors.New("image block count 0, want 1..2^32-1")
	}
	dev, err := blockdev.New(blockdev.Config{Blocks: int(blocks), BlockSize: int(bs), Model: costmodel.Fast()})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, bs)
	for {
		var rec [4]byte
		if _, err := io.ReadFull(f, rec[:]); err == io.EOF {
			return dev, nil
		} else if err != nil {
			return nil, fmt.Errorf("truncated record header: %w", err)
		}
		b := binary.LittleEndian.Uint32(rec[:])
		if b >= blocks {
			return nil, fmt.Errorf("record for block %d past the image's %d blocks", b, blocks)
		}
		if _, err := io.ReadFull(f, buf); err != nil {
			return nil, fmt.Errorf("truncated record for block %d: %w", b, err)
		}
		if err := dev.Write(clk, int(b), buf); err != nil {
			return nil, err
		}
	}
}
