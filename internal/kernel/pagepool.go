package kernel

import (
	"sync"

	"bento/internal/fsapi"
)

// pagePool recycles page-cache pages (struct + 4 KiB backing array)
// across all mounts. Page churn — create/unlink cycles, truncates,
// eviction under cache pressure — used to allocate a fresh page per
// miss; at steady state the pool makes those paths allocation-free,
// which the checked-in allocation budget (ALLOC_budget.json) enforces.
//
// Zeroing policy: getPage returns a page whose data is ZEROED. A pooled
// page may last have held another file's contents, and two fill paths
// depend on fresh pages reading as zeros (loadPage's beyond-EOF skip
// fill, and partial-page extension writes), so zeroing on Get is the
// safe default and the cross-file leak barrier. The policy is pinned by
// TestPagePoolZeroing.
//
// Safety: a page is only Put after it has been removed from its vnode's
// cache, by the one task running in that cell — so no reference can
// outlive the release. Pool reuse order is host-side state only; no
// virtual-time cost ever depends on which page struct backs an index.
//
// The pool is the one piece of kernel state parallel cells share, which
// is why it — alone in this package — is synchronised (a sync.Pool).
var pagePool = sync.Pool{
	New: func() any { return &page{data: make([]byte, fsapi.PageSize)} },
}

// getPage returns a fresh-looking page: zeroed data, zero policy state.
func getPage() *page {
	pg := pagePool.Get().(*page)
	clear(pg.data)
	return pg
}

// putPage recycles a page that has been removed from its cache. nil is
// accepted (Remove's zero entry on a missing key) and ignored.
func putPage(pg *page) {
	if pg == nil {
		return
	}
	pg.node.ResetForReuse()
	pg.fill.Reset()
	pg.readyAt = 0
	pg.lastUse = 0
	pagePool.Put(pg)
}
