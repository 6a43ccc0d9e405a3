// Package lru is the shared block-cache infrastructure used by every
// eviction site in the simulator: the kernel buffer cache
// (kernel.BufferCache), the userspace FUSE block cache (fuse.UserDisk),
// and the per-vnode page cache (kernel.Mount).
//
// The design mirrors real buffer caches (Linux's page LRU, bcache):
//
//   - Node is an intrusive doubly-linked list hook embedded in each cache
//     entry, so touch (move-to-front) and evict (unlink the tail) are O(1)
//     with no allocation. Per-entry policy state — reference count, dirty
//     flag, recency stamp — lives in the Node.
//
//   - Core is the cache engine: an ordered radix index from key to
//     entry (fan-out 64, Linux's xarray), the recency List (front = most
//     recently used), and a dirty tag per subtree so sync paths walk
//     exactly the dirty entries, in ascending key order, instead of
//     scanning the whole cache or sorting. Leaves emptied by removal stay
//     in the tree until ClearFunc, which frees every node and invalidates the
//     lookup cursor. The vnode page cache embeds a Core directly.
//
//   - Cache wraps one Core with capacity enforcement, reference
//     counting, and hit/miss/eviction statistics. Victim selection is
//     exactly global LRU — least recently used among clean, unpinned
//     entries.
//
// Nothing here takes a lock or uses an atomic. A cache belongs to one
// benchmark cell, and the vclock scheduler admits one of the cell's
// workers at a time (docs/architecture.md, "Determinism contract"): a
// host lock or atomic survives only where two host goroutines can reach
// the same state at the same host instant, and no cache is such a place.
//
// Eviction walks the list from the LRU tail, skipping pinned (refs > 0)
// and dirty entries; the first clean unpinned entry is the exact LRU
// victim. Core.EvictScan also supports second-chance (CLOCK-style)
// eviction for callers whose readers bump a per-entry recency counter
// instead of reordering the list (the page cache's PRead fast path):
// entries touched since they were last positioned are rotated back to
// the front instead of evicted.
package lru

// Node is the intrusive hook embedded in every cache entry. It carries
// the entry's key, its position in the recency list, and the per-entry
// policy state (reference count, dirty flag, recency stamp).
type Node struct {
	prev, next *Node
	key        int64
	stamp      int64 // recency value when last positioned in the list
	refs       int32
	dirty      bool
}

// Key reports the key this node was inserted under.
func (n *Node) Key() int64 { return n.key }

// Refs reports the current reference (pin) count.
func (n *Node) Refs() int { return int(n.refs) }

// Pin takes an eviction reference: a pinned entry is never a victim.
// Callers that do not use Cache's reference counting (the page cache)
// pin an entry to protect it across an eviction scan.
func (n *Node) Pin() { n.refs++ }

// Unpin drops an eviction reference taken with Pin.
func (n *Node) Unpin() { n.refs-- }

// Dirty reports whether the entry has unwritten modifications.
func (n *Node) Dirty() bool { return n.dirty }

// ResetForReuse clears the node's policy state (key, recency stamp,
// dirty flag) so the owning entry can return to a free pool and be
// recycled under a new key. The node must be unlinked from its list
// (i.e. the entry was removed or evicted from its cache) and unpinned;
// recycling a resident entry would corrupt the cache. A stale recency
// stamp in particular must not survive reuse: second-chance eviction
// compares it against the fresh entry's recency, and a leftover value
// would change victim selection.
func (n *Node) ResetForReuse() {
	n.key = 0
	n.stamp = 0
	n.refs = 0
	n.dirty = false
}

// Entry is implemented by cache entries: it exposes the embedded Node.
type Entry interface {
	LRUNode() *Node
}

// List is an intrusive doubly-linked recency list. The front is the most
// recently used entry, the back the least. The zero value is ready to
// use. All operations are O(1).
type List struct {
	root Node // sentinel: root.next = front (MRU), root.prev = back (LRU)
	n    int
}

func (l *List) lazyInit() {
	if l.root.next == nil {
		l.root.next = &l.root
		l.root.prev = &l.root
	}
}

// Len reports the number of nodes in the list.
func (l *List) Len() int { return l.n }

// PushFront inserts n at the MRU end.
func (l *List) PushFront(n *Node) {
	l.lazyInit()
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
	l.n++
}

// Remove unlinks n. It is a no-op for a node that is not in the list.
func (l *List) Remove(n *Node) {
	if n.next == nil {
		return
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
	l.n--
}

// MoveToFront makes n the MRU entry.
func (l *List) MoveToFront(n *Node) {
	if l.root.next == n {
		return
	}
	l.Remove(n)
	l.PushFront(n)
}

// Back returns the LRU node, or nil if the list is empty.
func (l *List) Back() *Node {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}

// olderToNewer returns the node in front of n (more recently used), or
// nil when n is the front. Used by eviction walks starting at Back.
func (l *List) olderToNewer(n *Node) *Node {
	if n.prev == &l.root {
		return nil
	}
	return n.prev
}
