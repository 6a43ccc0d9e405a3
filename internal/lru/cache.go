package lru

// Stats counts cache traffic.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a capacity-bounded, reference-counted block cache: one Core
// plus capacity enforcement and statistics. Eviction is exactly global
// LRU among clean, unpinned entries.
type Cache[E Entry] struct {
	core     Core[E]
	capacity int
	stats    Stats
}

// New creates a cache bounded at capacity entries (values < 1 mean 1).
func New[E Entry](capacity int) *Cache[E] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[E]{capacity: capacity}
}

// Get returns the entry for key with its reference count incremented,
// filling it on a miss. An entry enters the cache only once its contents
// exist: a miss first evicts clean, unpinned entries in LRU order until
// under capacity (entries stay resident while everything is pinned or
// dirty), then calls fill, and inserts the entry fill returns with one
// reference only if fill succeeds. A failed fill inserts nothing and
// Get returns its error. fill receives the entry that eviction just
// unlinked (the last one, if the cache was overflowed and several went)
// and may return it reset instead of allocating; evicted is false when
// nothing was evicted. A victim is unpinned, so only a caller of Peek
// could still be reading it, and one a failed fill took is gone with it.
func (c *Cache[E]) Get(key int64, fill func(victim E, evicted bool) (E, error)) (e E, hit bool, err error) {
	if e, ok := c.core.Get(key); ok {
		e.LRUNode().refs++
		c.stats.Hits++
		return e, true, nil
	}
	c.stats.Misses++
	var victim E
	evicted := false
	for c.core.Len() >= c.capacity {
		v, ok := c.core.EvictScan(nil)
		if !ok {
			break
		}
		c.stats.Evictions++
		victim, evicted = v, true
	}
	if e, err = fill(victim, evicted); err != nil {
		var none E
		return none, false, err
	}
	e.LRUNode().refs = 1
	c.core.Add(key, e)
	return e, false, nil
}

// Release drops one reference. It reports false on a release of an
// already-unreferenced entry (a caller bug).
func (c *Cache[E]) Release(e E) bool {
	n := e.LRUNode()
	if n.refs <= 0 {
		return false
	}
	n.refs--
	return true
}

// resident reports whether n is the node currently cached under its key
// (false once direct I/O dropped the entry under a holder's reference).
func (c *Cache[E]) resident(n *Node) bool {
	cur, ok := c.core.Peek(n.key)
	return ok && cur.LRUNode() == n
}

// MarkDirty flags e dirty and records it in the dirty set.
func (c *Cache[E]) MarkDirty(e E) {
	n := e.LRUNode()
	if c.resident(n) {
		c.core.MarkDirty(n.key)
	} else {
		// The entry was dropped from the cache (direct I/O); keep the
		// per-entry flag truthful for the holder of the reference.
		n.dirty = true
	}
}

// ClearDirty marks e clean, removing it from the dirty set.
func (c *Cache[E]) ClearDirty(e E) {
	n := e.LRUNode()
	if c.resident(n) {
		c.core.ClearDirty(n.key)
	} else {
		n.dirty = false
	}
}

// Peek returns the resident entry for key without taking a reference or
// touching recency — a coherence probe for the direct-I/O path.
func (c *Cache[E]) Peek(key int64) (e E, ok bool) { return c.core.Peek(key) }

// DropClean removes every clean, unpinned entry (drop_caches for a block
// cache) and reports how many were dropped. Dirty or referenced entries
// stay resident.
func (c *Cache[E]) DropClean() int { return c.core.DropClean() }

// Keys snapshots every resident key in ascending order (diagnostics and
// cache-residency tests).
func (c *Cache[E]) Keys() []int64 {
	var out []int64
	c.core.ForEach(func(key int64, _ E) bool {
		out = append(out, key)
		return true
	})
	return out
}

// Drop unconditionally removes the entry for key (direct I/O's
// invalidation), regardless of references or dirtiness. It does not count
// as an eviction.
func (c *Cache[E]) Drop(key int64) (E, bool) {
	e, _, ok := c.core.Remove(key)
	return e, ok
}

// DirtyEntries snapshots every dirty entry in ascending key order, so
// sync paths visit exactly the dirty set in a deterministic order.
func (c *Cache[E]) DirtyEntries() []E { return c.core.DirtyEntries() }

// Len reports the number of cached entries.
func (c *Cache[E]) Len() int { return c.core.Len() }

// Stats returns a snapshot of the cache counters.
func (c *Cache[E]) Stats() Stats { return c.stats }

// Reset drops every entry after check approves each one (InvalidateAll:
// check rejects referenced buffers). Statistics are preserved.
func (c *Cache[E]) Reset(check func(E) error) error {
	if check != nil {
		var err error
		c.core.ForEach(func(_ int64, e E) bool {
			err = check(e)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	c.core.Clear()
	return nil
}
