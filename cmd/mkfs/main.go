// mkfs formats a simulated device with an empty xv6 file system and
// writes it to a host file as a sparse "BIMG" image (only non-zero blocks
// are stored), which cmd/fsck checks.
//
// Usage:
//
//	mkfs [-o disk.img] [-blocks 65536] [-ninodes 4096]
//
// The process exits 2 on invalid flags and 1 if formatting or writing
// the image fails — including an inode count layout.Mkfs rejects (fewer
// than 2, or more than the device can hold).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/kernel"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// validateFlags fails fast on a value the image cannot carry: a
// non-positive -blocks, or a -blocks or -ninodes beyond the 32 bits the
// image header and the superblock store (converting would silently
// truncate it).
func validateFlags(blocks int, ninodes uint) error {
	if blocks <= 0 || uint64(blocks) > math.MaxUint32 {
		return fmt.Errorf("-blocks %d: want a block count in [1, %d]", blocks, uint64(math.MaxUint32))
	}
	if uint64(ninodes) > math.MaxUint32 {
		return fmt.Errorf("-ninodes %d: want an inode count of at most %d", ninodes, uint64(math.MaxUint32))
	}
	return nil
}

func main() {
	out := flag.String("o", "disk.img", "output image path")
	blocks := flag.Int("blocks", 65536, "device size in 4K blocks")
	ninodes := flag.Uint("ninodes", 4096, "inode table size")
	flag.Parse()
	if err := validateFlags(*blocks, *ninodes); err != nil {
		fmt.Fprintln(os.Stderr, "mkfs:", err)
		os.Exit(2)
	}

	model := costmodel.Fast()
	dev := blockdev.MustNew(blockdev.Config{Blocks: *blocks, Model: model})
	clk := vclock.NewClock()
	sb, err := layout.Mkfs(clk, dev, uint32(*ninodes))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkfs:", err)
		os.Exit(1)
	}

	// Serialize the device contents (sparse: only non-zero blocks).
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkfs:", err)
		os.Exit(1)
	}
	defer f.Close()
	k := kernel.New(model)
	task := k.NewTask("dump")
	buf := make([]byte, dev.BlockSize())
	zero := make([]byte, dev.BlockSize())
	var hdr [12]byte
	copy(hdr[:4], "BIMG")
	binary.LittleEndian.PutUint32(hdr[4:], uint32(*blocks))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(dev.BlockSize()))
	if _, err := f.Write(hdr[:]); err != nil {
		fmt.Fprintln(os.Stderr, "mkfs:", err)
		os.Exit(1)
	}
	written := 0
	for b := 0; b < *blocks; b++ {
		if err := dev.Read(task.Clk, b, buf); err != nil {
			fmt.Fprintln(os.Stderr, "mkfs:", err)
			os.Exit(1)
		}
		if string(buf) == string(zero) {
			continue
		}
		var rec [4]byte
		binary.LittleEndian.PutUint32(rec[:], uint32(b))
		if _, err := f.Write(rec[:]); err != nil {
			fmt.Fprintln(os.Stderr, "mkfs:", err)
			os.Exit(1)
		}
		if _, err := f.Write(buf); err != nil {
			fmt.Fprintln(os.Stderr, "mkfs:", err)
			os.Exit(1)
		}
		written++
	}
	fmt.Printf("mkfs: %s: %d blocks (%d used), %d inodes, data starts at block %d\n",
		*out, *blocks, written, sb.NInodes, sb.DataStart)
}
