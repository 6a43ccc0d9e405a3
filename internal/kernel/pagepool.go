package kernel

import "bento/internal/fsapi"

// Page memory belongs to the Mount. Pages (struct + 4 KiB of data) are
// carved from arenas the mount allocates — a slice of page structs and one
// backing array per arena — and recycle through the mount's own free list:
// eviction, truncate, dropVnode, DropCaches and failed fills put pages
// back, misses take them out, and a new arena is allocated only when the
// list is empty. A page is freed only after it has left the page cache, so
// the mount never owns more page memory than its cache's high-water mark
// (plus the unused tail of one arena); nothing needs bounding or tuning,
// and all of it goes when the mount does. Like the rest of a cell's state
// the list is touched by one task at a time and holds no lock.
//
// Contents policy: a page from getPage holds UNSPECIFIED bytes — most
// likely another file's — unless the caller asks for zeros. The cross-file
// leak barrier is that every byte of a page is written before the page is
// readable: a fill through FileSystem.ReadPage writes the whole buffer
// (that is ReadPage's contract), a full-page PWrite overwrites it, and the
// one path that relies on the page's own contents — a page wholly beyond
// EOF, which no fill touches — asks for zeros. TestPagePoolZeroing pins
// the policy; TestRecycledPagesDoNotLeak and TestReadPageFillsEveryByte (in
// the repository root) hold the kernel's and the file systems' halves of
// the barrier.
//
// Safety: a page is only put back after it has been removed from its
// vnode's cache, by the one task running in that cell — so no reference
// can outlive the release. Reuse order is host-side state only; no
// virtual-time cost ever depends on which page struct backs an index.

// arenaPages is the page count of a full-sized arena (256 KiB of data).
// The first arenas of a mount are smaller — 4 pages, doubling up to this —
// because internal/crashtort mounts thousands of file systems that touch a
// handful of pages each, and a 256 KiB arena apiece showed in its time.
const arenaPages = 64

// getPage returns a page with zero policy state. Its data is zeroed when
// zeroed is set and unspecified otherwise: the caller must then write all
// PageSize bytes before the page can be read.
func (m *Mount) getPage(zeroed bool) *page {
	if len(m.freePages) == 0 {
		m.growPages()
	}
	n := len(m.freePages) - 1
	pg := m.freePages[n]
	m.freePages = m.freePages[:n]
	if zeroed {
		clear(pg.data)
	}
	return pg
}

// growPages refills the empty free list from a fresh arena, each twice
// the size of the one before until arenaPages is reached.
func (m *Mount) growPages() {
	n := arenaPages
	if small := 4 << m.arenas; small < n {
		n = small
		m.arenas++
	}
	pages := make([]page, n)
	data := make([]byte, n*fsapi.PageSize)
	for i := range pages {
		lo, hi := i*fsapi.PageSize, (i+1)*fsapi.PageSize
		pages[i].data = data[lo:hi:hi]
		m.freePages = append(m.freePages, &pages[i])
	}
}

// putPage recycles a page that has been removed from its cache (or was
// never published). nil is accepted (Remove's zero entry on a missing
// key) and ignored.
func (m *Mount) putPage(pg *page) {
	if pg == nil {
		return
	}
	pg.node.ResetForReuse()
	pg.fill.Reset()
	pg.readyAt = 0
	pg.lastUse = 0
	m.freePages = append(m.freePages, pg)
}
