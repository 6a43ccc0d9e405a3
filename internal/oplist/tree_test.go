package oplist_test

import (
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/oplist"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// TestTreeStopsAtDirectoryCycle damages an image so that directory /a
// holds an entry "loop" naming the root, and requires Tree to return an
// error naming /a/loop instead of walking the cycle until the stack
// overflows.
func TestTreeStopsAtDirectoryCycle(t *testing.T) {
	model := costmodel.Fast()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: model})
	mount := func(ninodes uint32) (*kernel.Kernel, *kernel.Mount, *kernel.Task) {
		k := kernel.New(model)
		task := k.NewTask("tree")
		m, err := harness.Mount(k, task, dev, harness.VariantBento, harness.Published(harness.VariantBento), ninodes)
		if err != nil {
			t.Fatal(err)
		}
		return k, m, task
	}
	k, m, task := mount(64)
	if err := m.Mkdir(task, "/a"); err != nil {
		t.Fatal(err)
	}
	a, err := m.Stat(task, "/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Unmount(task, "/"); err != nil {
		t.Fatal(err)
	}

	// /a holds "." and ".."; a third entry "loop" names inode 1, the
	// root, and /a grows over it.
	clk := vclock.NewClock()
	buf := make([]byte, layout.BlockSize)
	read := func(blk int) {
		if err := dev.Read(clk, blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	write := func(blk int) {
		if err := dev.Write(clk, blk, buf); err != nil {
			t.Fatal(err)
		}
	}
	read(1)
	sb, err := layout.DecodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	inum := uint32(a.Ino)
	iblk, ioff := int(sb.InodeBlock(inum)), layout.InodeOffset(inum)
	read(iblk)
	din := layout.DecodeDinode(buf[ioff:])
	if din.Size != 2*layout.DirentSize {
		t.Fatalf("/a is %d bytes, want its two entries", din.Size)
	}
	din.Size += layout.DirentSize
	din.Encode(buf[ioff:])
	write(iblk)
	read(int(din.Addrs[0]))
	if err := layout.EncodeDirent(layout.Dirent{Ino: uint32(fsapi.RootIno), Name: "loop"}, buf[2*layout.DirentSize:]); err != nil {
		t.Fatal(err)
	}
	write(int(din.Addrs[0]))

	_, m, task = mount(0)
	if _, err := oplist.Tree(m, task); err == nil || !strings.Contains(err.Error(), "/a/loop") {
		t.Fatalf("Tree over a directory cycle returned %v, want an error naming /a/loop", err)
	}
}
