package lru

import "slices"

// Core is the cache engine: key→entry map, recency list, and explicit
// dirty set. The zero value is ready to use. The vnode page cache embeds
// a Core directly; Cache wraps one with capacity and reference counting.
type Core[E Entry] struct {
	entries map[int64]E
	rec     List
	dirty   map[int64]struct{}
}

// Len reports the number of cached entries.
func (c *Core[E]) Len() int { return len(c.entries) }

// DirtyLen reports the number of dirty entries.
func (c *Core[E]) DirtyLen() int { return len(c.dirty) }

// Peek returns the entry for key without touching recency state.
func (c *Core[E]) Peek(key int64) (E, bool) {
	e, ok := c.entries[key]
	return e, ok
}

// Get returns the entry for key and marks it most recently used.
func (c *Core[E]) Get(key int64) (E, bool) {
	e, ok := c.entries[key]
	if ok {
		c.rec.MoveToFront(e.LRUNode())
	}
	return e, ok
}

// Add inserts e under key at the MRU end. The key must not be present.
func (c *Core[E]) Add(key int64, e E) {
	if c.entries == nil {
		c.entries = make(map[int64]E)
	}
	n := e.LRUNode()
	n.key = key
	c.entries[key] = e
	c.rec.PushFront(n)
}

// Remove unconditionally drops the entry for key — even if pinned or
// dirty (truncate and read-error paths need this). It reports the entry,
// whether it was dirty, and whether it existed.
func (c *Core[E]) Remove(key int64) (e E, wasDirty, ok bool) {
	e, ok = c.entries[key]
	if !ok {
		return e, false, false
	}
	n := e.LRUNode()
	wasDirty = n.dirty
	if wasDirty {
		n.dirty = false
		delete(c.dirty, key)
	}
	c.rec.Remove(n)
	delete(c.entries, key)
	return e, wasDirty, true
}

// MarkDirty flags the entry for key dirty and records it in the dirty
// set. It reports whether the entry was newly dirtied (false when it was
// already dirty or is not cached).
func (c *Core[E]) MarkDirty(key int64) bool {
	e, ok := c.entries[key]
	if !ok || e.LRUNode().dirty {
		return false
	}
	e.LRUNode().dirty = true
	if c.dirty == nil {
		c.dirty = make(map[int64]struct{})
	}
	c.dirty[key] = struct{}{}
	return true
}

// ClearDirty marks the entry for key clean, removing it from the dirty
// set. It reports whether the entry was dirty.
func (c *Core[E]) ClearDirty(key int64) bool {
	e, ok := c.entries[key]
	if !ok || !e.LRUNode().dirty {
		return false
	}
	e.LRUNode().dirty = false
	delete(c.dirty, key)
	return true
}

// ClearAllDirty marks every dirty entry clean and reports how many there
// were. Write-back paths call it after flushing the whole dirty set.
func (c *Core[E]) ClearAllDirty() int {
	n := len(c.dirty)
	for key := range c.dirty {
		if e, ok := c.entries[key]; ok {
			e.LRUNode().dirty = false
		}
	}
	clear(c.dirty)
	return n
}

// DirtyKeys returns the dirty keys in ascending order. Sync paths
// iterate exactly this set — never the whole cache — and the sorted
// order keeps write-back deterministic.
func (c *Core[E]) DirtyKeys() []int64 {
	return c.AppendDirtyKeys(make([]int64, 0, len(c.dirty)))
}

// AppendDirtyKeys appends the dirty keys to dst in ascending order and
// returns the extended slice — DirtyKeys for callers that recycle a
// scratch buffer across write-back passes. The appended region (not all
// of dst) is sorted.
func (c *Core[E]) AppendDirtyKeys(dst []int64) []int64 {
	start := len(dst)
	for key := range c.dirty {
		dst = append(dst, key)
	}
	slices.Sort(dst[start:])
	return dst
}

// MinDirtyKey returns the smallest dirty key — DirtyKeys()[0] without
// the slice or the sort, for callers that write back one victim at a
// time. It reports false when nothing is dirty.
func (c *Core[E]) MinDirtyKey() (int64, bool) {
	var min int64
	found := false
	for key := range c.dirty {
		if !found || key < min {
			min, found = key, true
		}
	}
	return min, found
}

// DirtyEntries returns the dirty entries in ascending key order.
func (c *Core[E]) DirtyEntries() []E {
	keys := c.DirtyKeys()
	out := make([]E, 0, len(keys))
	for _, key := range keys {
		out = append(out, c.entries[key])
	}
	return out
}

// EvictScan removes and returns the eviction victim: the least recently
// used entry that is clean and unpinned. It reports false when every
// entry is pinned or dirty (the caller lets the cache overflow, exactly
// like a real buffer cache under memory pressure).
//
// With recency == nil the list order is authoritative and the walk is
// exact LRU. A non-nil recency enables second-chance (CLOCK-style)
// selection for caches whose readers bump a per-entry recency counter
// instead of reordering the list: a candidate whose recency
// advanced since it was last positioned is rotated back to the front
// (and restamped) rather than evicted. The walk examines each resident
// entry at most twice, so a single call is O(n) worst-case but O(1)
// amortized; pure-LRU callers skip at most the pinned/dirty tail.
func (c *Core[E]) EvictScan(recency func(E) int64) (E, bool) {
	var zero E
	// Bound the walk: every rotation restamps, so after len(entries)
	// rotations each entry's stamp is current and the next pass evicts.
	budget := 2*c.rec.Len() + 1
	for n := c.rec.Back(); n != nil && budget > 0; budget-- {
		older := c.rec.olderToNewer(n)
		if n.refs > 0 || n.dirty {
			n = older
			continue
		}
		e := c.entries[n.key]
		if recency != nil {
			if r := recency(e); r > n.stamp {
				n.stamp = r
				c.rec.MoveToFront(n)
				if older == nil {
					// n was both back and front: it is the only
					// evictable entry and it just got its second
					// chance; take it from the back on the rewalk.
					older = c.rec.Back()
				}
				n = older
				continue
			}
		}
		c.rec.Remove(n)
		delete(c.entries, n.key)
		return e, true
	}
	return zero, false
}

// DropClean removes every clean, unpinned entry (drop_caches) and
// reports how many were dropped.
func (c *Core[E]) DropClean() int { return c.DropCleanFunc(nil) }

// DropCleanFunc is DropClean with a per-entry callback: onDrop (when
// non-nil) receives each dropped entry so the caller can recycle it
// through a free pool. The entry is already out of the cache when onDrop
// runs.
func (c *Core[E]) DropCleanFunc(onDrop func(E)) int {
	dropped := 0
	n := c.rec.Back()
	for n != nil {
		older := c.rec.olderToNewer(n)
		if n.refs == 0 && !n.dirty {
			e := c.entries[n.key]
			c.rec.Remove(n)
			delete(c.entries, n.key)
			dropped++
			if onDrop != nil {
				onDrop(e)
			}
		}
		n = older
	}
	return dropped
}

// ForEach calls fn for every cached entry (map order) until fn returns
// false. fn must not mutate the Core.
func (c *Core[E]) ForEach(fn func(key int64, e E) bool) {
	for key, e := range c.entries {
		if !fn(key, e) {
			return
		}
	}
}

// Clear drops every entry and all dirty state.
func (c *Core[E]) Clear() { c.ClearFunc(nil) }

// ClearFunc is Clear with a per-entry callback: onDrop (when non-nil)
// receives each dropped entry — dirty ones included — so the caller can
// recycle them through a free pool.
func (c *Core[E]) ClearFunc(onDrop func(E)) {
	for _, e := range c.entries {
		n := e.LRUNode()
		c.rec.Remove(n)
		n.dirty = false
		if onDrop != nil {
			onDrop(e)
		}
	}
	clear(c.entries)
	clear(c.dirty)
}
