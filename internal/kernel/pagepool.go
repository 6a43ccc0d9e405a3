package kernel

import "bento/internal/fsapi"

// Page memory belongs to the Mount. Page structs and 4 KiB page buffers
// are carved from arenas the mount allocates and recycle through two free
// lists of the mount's own, separately, because a page does not always
// own its buffer (shared pages, below): eviction, truncate, dropVnode,
// DropCaches and failed fills put pages back, misses take them out, and a
// new arena is allocated only when a list is empty. A page is freed only
// after it has left the page cache, so the mount never owns more page
// structs than its cache's high-water mark (plus the unused tail of one
// arena); nothing needs bounding or tuning, and all of it goes when the
// mount does. Like the rest of a cell's state the lists are touched by one
// task at a time and hold no lock.
//
// Shared pages: a page's buffer is shared, and from then on read-only,
// when somebody below the page cache may hold it too (docs/architecture.md,
// "Buffer ownership"). That happens two ways. A fill through
// PageLender.LendPage makes page.data the storage backend's own buffer of
// the block. And write-back gives the page's buffer up — the file system
// may hand it to the backend as the block's new contents — so every page
// is marked shared before its buffer is passed to WritePage or WritePages,
// whatever the call then returns. A shared page is read like any other; a
// writer (PWrite, truncate's tail clear) first replaces its buffer with a
// private one, copying only when part of the old contents survives the
// write; and when the page is freed its struct is recycled but its buffer
// is not — the mount's free list never holds a buffer anyone else can
// reach, and a shared buffer nobody references is the collector's.
//
// Contents policy: a page from getPage holds UNSPECIFIED bytes — most
// likely another file's — unless the caller asks for zeros. The cross-file
// leak barrier is that every byte of a page is written before the page is
// readable: a fill through FileSystem.ReadPage writes the whole buffer
// (that is ReadPage's contract), a lent view is a whole block of the file
// (that is LendPage's), a full-page PWrite overwrites it, and the one path
// that relies on the page's own contents — a page wholly beyond EOF, which
// no fill touches — asks for zeros. TestPagePoolZeroing pins the policy;
// TestRecycledPagesDoNotLeak and TestReadPageFillsEveryByte (in the
// repository root) hold the kernel's and the file systems' halves of the
// barrier.
//
// Safety: a page is only put back after it has been removed from its
// vnode's cache, by the one task running in that cell — so no reference
// can outlive the release. Reuse order is host-side state only; no
// virtual-time cost ever depends on which page struct or buffer backs an
// index.

// arenaPages is the page count of a full-sized arena (256 KiB of data).
// The first arenas of a mount are smaller — 4 pages, doubling up to this —
// because internal/crashtort mounts thousands of file systems that touch a
// handful of pages each, and a 256 KiB arena apiece showed in its time.
const arenaPages = 64

// arenaSize is the size of the next arena of a list that has allocated n
// entries so far: 4, 8, 16, 32, then arenaPages.
func arenaSize(n int) int {
	return min(n+4, arenaPages)
}

// getPage returns a page with zero policy state and a private buffer. Its
// data is zeroed when zeroed is set and unspecified otherwise: the caller
// must then write all PageSize bytes before the page can be read.
func (m *Mount) getPage(zeroed bool) *page {
	pg := m.getPageStruct()
	pg.data = m.getPageData()
	if zeroed {
		clear(pg.data)
	}
	return pg
}

// getPageStruct takes a page struct (no buffer) off the free list,
// refilling the empty list from a fresh arena.
func (m *Mount) getPageStruct() *page {
	if len(m.freePages) == 0 {
		pages := make([]page, arenaSize(m.pageStructs))
		m.pageStructs += len(pages)
		for i := range pages {
			m.freePages = append(m.freePages, &pages[i])
		}
	}
	n := len(m.freePages) - 1
	pg := m.freePages[n]
	m.freePages = m.freePages[:n]
	return pg
}

// getPageData takes a private page buffer, contents unspecified, off the
// free list, refilling the empty list from a fresh arena.
func (m *Mount) getPageData() []byte {
	if len(m.freeData) == 0 {
		n := arenaSize(m.pageBufs)
		m.pageBufs += n
		data := make([]byte, n*fsapi.PageSize)
		for ; len(data) > 0; data = data[fsapi.PageSize:] {
			m.freeData = append(m.freeData, data[:fsapi.PageSize:fsapi.PageSize])
		}
	}
	n := len(m.freeData) - 1
	data := m.freeData[n]
	m.freeData[n] = nil
	m.freeData = m.freeData[:n]
	return data
}

// unshare gives a shared page a private buffer before it is written. With
// keep the old contents are copied across (a partial overwrite); without,
// the new contents are unspecified and the caller writes all of them.
func (m *Mount) unshare(pg *page, keep bool) {
	old := pg.data
	pg.data, pg.shared = m.getPageData(), false
	if keep {
		copy(pg.data, old)
	}
}

// putPage recycles a page that has been removed from its cache (or never
// entered it): the struct always, the buffer unless it is shared (or
// a failed fill never got one). nil is accepted (Remove's zero entry on a
// missing key) and ignored.
func (m *Mount) putPage(pg *page) {
	if pg == nil {
		return
	}
	if pg.data != nil && !pg.shared {
		m.freeData = append(m.freeData, pg.data)
	}
	pg.data, pg.shared = nil, false
	pg.node.ResetForReuse()
	pg.readyAt = 0
	pg.lastUse = 0
	m.freePages = append(m.freePages, pg)
}
