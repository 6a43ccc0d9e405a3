package kernel_test

import (
	"bytes"
	"testing"

	"bento/internal/fsapi"
)

// TestRecycledPagesDoNotLeak is the black-box half of the page-memory
// leak barrier. Pages are handed out un-zeroed, so what keeps file A's
// bytes out of file B is that every byte of a page is written before the
// page can be read: file A's pages go to the mount's free list full of a
// pattern, and file B — 100 bytes, then a sparse extension — takes them
// back through each path that fills a page: the beyond-EOF page of a
// partial write (zeroed on request), the partial write into a new last
// page, and a read of a hole below the kernel's size that the file
// system has never heard of (filled by ReadPage).
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
	if err := a.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches() // all of A's pages are now on the free list, pattern intact

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
	// Again with B's own pages recycled and refilled from the file system.
	if err := b.FSync(task); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	check("after write-back and DropCaches")
}
