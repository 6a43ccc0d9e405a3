package kernel_test

import (
	"bytes"
	"testing"

	"bento/internal/fsapi"
)

// TestRecycledPagesDoNotLeak is the black-box half of the page-memory
// leak barrier. Page buffers are handed out un-zeroed, so what keeps file
// A's bytes out of file B is that every byte of a page is written before
// the page can be read: file A's buffers go to the mount's free list full
// of a pattern — A is removed with its pages still dirty; a written-back
// page's buffer is shared and would not be recycled at all — and file B —
// 100 bytes, then a sparse extension — takes them back through each path
// that fills a page: the beyond-EOF page of a partial write (zeroed on
// request), the partial write into a new last page, a read of a hole
// below the kernel's size that the file system has never heard of
// (filled by ReadPage), and the private copy a partial write makes of a
// page whose buffer write-back has given up.
func TestRecycledPagesDoNotLeak(t *testing.T) {
	_, m, task := newMount(t)
	const secret = 0xC7
	const pages = 24

	a, err := m.Open(task, "/a", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PWrite(task, bytes.Repeat([]byte{secret}, pages*fsapi.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, a); err != nil {
		t.Fatal(err)
	}
	if err := m.Unlink(task, "/a"); err != nil {
		t.Fatal(err)
	}
	// All of A's buffers are now on the free list, pattern intact.
	if _, _, _, free := m.PagePool(); len(free) < pages || free[len(free)-1][0] != secret {
		t.Fatalf("%d buffers on the free list after removing a %d-page dirty file", len(free), pages)
	}

	b, err := m.Open(task, "/b", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.PWrite(task, bytes.Repeat([]byte{1}, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PWrite(task, []byte{2, 2, 2}, 2*fsapi.PageSize); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 2*fsapi.PageSize+3)
	copy(want, bytes.Repeat([]byte{1}, 100))
	copy(want[2*fsapi.PageSize:], []byte{2, 2, 2})
	check := func(when string) {
		t.Helper()
		got := make([]byte, 3*fsapi.PageSize)
		n, err := b.PRead(task, got, 0)
		if err != nil || n != len(want) {
			t.Fatalf("%s: PRead = %d, %v, want %d bytes", when, n, err, len(want))
		}
		if i := bytes.IndexByte(got[:n], secret); i >= 0 {
			t.Fatalf("%s: byte %d of file B is file A's", when, i)
		}
		if !bytes.Equal(got[:n], want) {
			t.Fatalf("%s: file B reads back wrong", when)
		}
	}
	check("from the cache")
	// Write-back gives B's buffers up; a partial write then moves page 0
	// into a recycled buffer, which must be overwritten whole.
	if err := b.FSync(task); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PWrite(task, []byte{1}, 50); err != nil {
		t.Fatal(err)
	}
	check("after a partial write to a written-back page")
	// Again with B's pages refilled from the file system.
	if err := b.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	check("after write-back and DropCaches")
}
