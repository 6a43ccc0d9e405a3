package lru

import "math/bits"

// The index is a radix tree with fan-out 64, the shape of Linux's xarray
// with PAGECACHE_TAG_DIRTY: six key bits per level, one present word and
// one dirty word per node.
const (
	fanBits = 6
	fan     = 1 << fanBits
	fanMask = fan - 1
)

// leaf holds the entries for keys [hi<<6, hi<<6+64) of one key prefix hi.
type leaf[E Entry] struct {
	present uint64 // bit i: slots[i] is cached
	dirty   uint64 // bit i: slots[i] is dirty (a subset of present)
	parent  *inner[E]
	slots   [fan]E
}

// inner is an interior node. At level 1 its children are leaves, above
// that interior nodes; only the array for its level is used.
type inner[E Entry] struct {
	present uint64 // bit i: child i exists
	dirty   uint64 // bit i: the dirty tag — some entry under child i is dirty
	parent  *inner[E]
	leaves  [fan]*leaf[E]
	kids    [fan]*inner[E]
}

// Core is the cache engine: an ordered radix index from key to entry with
// dirty tags, plus the recency list. The zero value is ready to use. The
// vnode page cache embeds a Core directly; Cache wraps one with capacity
// and reference counting.
//
// Keys are non-negative; a negative key panics. The tree is as tall as
// its largest key needs: a Core whose keys are all below 64 is one leaf
// and no interior node, and a lone key near 2⁶² costs one node per level
// (eleven), not memory in proportion to the key. A leaf whose last entry
// is removed stays in the tree — a cache that ran through a key range is
// about to run through it again — and only Clear frees nodes, which is
// also the only operation that invalidates the cursor.
type Core[E Entry] struct {
	root   *inner[E] // nil while levels == 0
	leaf0  *leaf[E]  // the whole tree while levels == 0 (keys < 64)
	levels int       // interior levels above the leaves
	// The cursor is the leaf the last lookup ended in: sequential keys
	// skip the descent. cur covers keys with key>>fanBits == curHi.
	cur    *leaf[E]
	curHi  int64
	n      int
	ndirty int
	rec    List
}

// Len reports the number of cached entries.
func (c *Core[E]) Len() int { return c.n }

// DirtyLen reports the number of dirty entries.
func (c *Core[E]) DirtyLen() int { return c.ndirty }

// find returns the leaf covering key, or nil when the tree has none.
func (c *Core[E]) find(key int64) *leaf[E] {
	if key>>fanBits == c.curHi && c.cur != nil {
		return c.cur
	}
	if key < 0 {
		panic("lru: negative key")
	}
	if key>>(fanBits*(c.levels+1)) != 0 {
		return nil // beyond what the tree's height covers
	}
	lf := c.leaf0
	if n := c.root; n != nil {
		for l := c.levels; l > 1 && n != nil; l-- {
			n = n.kids[key>>(fanBits*l)&fanMask]
		}
		if n == nil {
			return nil
		}
		lf = n.leaves[key>>fanBits&fanMask]
	}
	if lf != nil {
		c.cur, c.curHi = lf, key>>fanBits
	}
	return lf
}

// findOrCreate returns the leaf covering key, growing the tree upward
// and filling in the path as needed.
func (c *Core[E]) findOrCreate(key int64) *leaf[E] {
	if lf := c.find(key); lf != nil {
		return lf
	}
	for key>>(fanBits*(c.levels+1)) != 0 {
		// One more level on top; the old tree becomes child 0 and hands
		// its dirty tag up.
		r := &inner[E]{}
		switch {
		case c.root != nil:
			r.kids[0], c.root.parent, r.present = c.root, r, 1
			if c.root.dirty != 0 {
				r.dirty = 1
			}
		case c.leaf0 != nil:
			r.leaves[0], c.leaf0.parent, r.present = c.leaf0, r, 1
			if c.leaf0.dirty != 0 {
				r.dirty = 1
			}
			c.leaf0 = nil
		}
		c.root = r
		c.levels++
	}
	lf := &leaf[E]{}
	if c.root == nil {
		c.leaf0 = lf
	} else {
		n := c.root
		for l := c.levels; l > 1; l-- {
			i := key >> (fanBits * l) & fanMask
			if n.kids[i] == nil {
				n.kids[i] = &inner[E]{parent: n}
				n.present |= 1 << i
			}
			n = n.kids[i]
		}
		i := key >> fanBits & fanMask
		n.leaves[i], lf.parent = lf, n
		n.present |= 1 << i
	}
	c.cur, c.curHi = lf, key>>fanBits
	return lf
}

// tag sets the dirty tags above lf, which is about to get its first dirty
// slot, up to the first node that already had a tagged child.
func tag[E Entry](lf *leaf[E], hi int64) {
	first := true
	for n, k := lf.parent, hi; first && n != nil; n, k = n.parent, k>>fanBits {
		first = n.dirty == 0
		n.dirty |= 1 << (k & fanMask)
	}
}

// untag clears the dirty tags above lf, whose last dirty slot was just
// cleared, up to the first node with another tagged child.
func untag[E Entry](lf *leaf[E], hi int64) {
	last := true
	for n, k := lf.parent, hi; last && n != nil; n, k = n.parent, k>>fanBits {
		n.dirty &^= 1 << (k & fanMask)
		last = n.dirty == 0
	}
}

// setDirty flags slot key of lf dirty.
func (c *Core[E]) setDirty(lf *leaf[E], key int64) {
	if lf.dirty == 0 {
		tag(lf, key>>fanBits)
	}
	lf.dirty |= 1 << (key & fanMask)
	c.ndirty++
}

// unsetDirty is the inverse of setDirty.
func (c *Core[E]) unsetDirty(lf *leaf[E], key int64) {
	lf.dirty &^= 1 << (key & fanMask)
	c.ndirty--
	if lf.dirty == 0 {
		untag(lf, key>>fanBits)
	}
}

// Peek returns the entry for key without touching recency state.
func (c *Core[E]) Peek(key int64) (E, bool) {
	if lf := c.find(key); lf != nil && lf.present&(1<<(key&fanMask)) != 0 {
		return lf.slots[key&fanMask], true
	}
	var zero E
	return zero, false
}

// Get returns the entry for key and marks it most recently used.
func (c *Core[E]) Get(key int64) (E, bool) {
	e, ok := c.Peek(key)
	if ok {
		c.rec.MoveToFront(e.LRUNode())
	}
	return e, ok
}

// Add inserts e under key at the MRU end. The key must not be present.
func (c *Core[E]) Add(key int64, e E) {
	lf := c.findOrCreate(key)
	lf.slots[key&fanMask] = e
	lf.present |= 1 << (key & fanMask)
	c.n++
	n := e.LRUNode()
	n.key = key
	c.rec.PushFront(n)
}

// unlink takes the entry in slot key of lf out of the index and the
// recency list, leaving it clean, and returns it.
func (c *Core[E]) unlink(lf *leaf[E], key int64) E {
	var zero E
	i := key & fanMask
	e := lf.slots[i]
	lf.slots[i] = zero
	lf.present &^= 1 << i
	c.n--
	n := e.LRUNode()
	if n.dirty {
		n.dirty = false
		c.unsetDirty(lf, key)
	}
	c.rec.Remove(n)
	return e
}

// Remove unconditionally drops the entry for key — even if pinned or
// dirty (truncate and direct-I/O invalidation need this). It reports the entry,
// whether it was dirty, and whether it existed.
func (c *Core[E]) Remove(key int64) (e E, wasDirty, ok bool) {
	lf := c.find(key)
	if lf == nil || lf.present&(1<<(key&fanMask)) == 0 {
		return e, false, false
	}
	wasDirty = lf.dirty&(1<<(key&fanMask)) != 0
	return c.unlink(lf, key), wasDirty, true
}

// RemoveFrom removes every entry whose key is at least from — pinned and
// dirty ones included — in ascending key order and reports how many went.
// onDrop (when non-nil) receives each one, already out of the cache and
// clean. Truncation is the caller.
func (c *Core[E]) RemoveFrom(from int64, onDrop func(E)) int {
	if from < 0 {
		panic("lru: negative key")
	}
	before := c.n
	c.walk(from, false, func(lf *leaf[E], hi int64) bool {
		m := lf.present
		if hi == from>>fanBits {
			m &^= 1<<(from&fanMask) - 1
		}
		for ; m != 0; m &= m - 1 {
			e := c.unlink(lf, hi<<fanBits|int64(bits.TrailingZeros64(m)))
			if onDrop != nil {
				onDrop(e)
			}
		}
		return true
	})
	return before - c.n
}

// MarkDirty flags the entry for key dirty and records it in the dirty
// set. It reports whether the entry was newly dirtied (false when it was
// already dirty or is not cached).
func (c *Core[E]) MarkDirty(key int64) bool {
	lf := c.find(key)
	bit := uint64(1) << (key & fanMask)
	if lf == nil || lf.present&bit == 0 || lf.dirty&bit != 0 {
		return false
	}
	lf.slots[key&fanMask].LRUNode().dirty = true
	c.setDirty(lf, key)
	return true
}

// ClearDirty marks the entry for key clean, removing it from the dirty
// set. It reports whether the entry was dirty.
func (c *Core[E]) ClearDirty(key int64) bool {
	lf := c.find(key)
	if lf == nil || lf.dirty&(1<<(key&fanMask)) == 0 {
		return false
	}
	lf.slots[key&fanMask].LRUNode().dirty = false
	c.unsetDirty(lf, key)
	return true
}

// ClearAllDirty marks every dirty entry clean and reports how many there
// were. Write-back paths call it after flushing the whole dirty set. It
// visits only tagged leaves.
func (c *Core[E]) ClearAllDirty() int {
	cleaned := c.ndirty
	c.walk(0, true, func(lf *leaf[E], hi int64) bool {
		for m := lf.dirty; m != 0; m &= m - 1 {
			lf.slots[bits.TrailingZeros64(m)].LRUNode().dirty = false
		}
		lf.dirty = 0
		untag(lf, hi)
		return true
	})
	c.ndirty = 0
	return cleaned
}

// DirtyKeys returns the dirty keys in ascending order. Sync paths
// iterate exactly this set — never the whole cache — and the ascending
// order keeps write-back deterministic.
func (c *Core[E]) DirtyKeys() []int64 {
	return c.AppendDirtyKeys(make([]int64, 0, c.ndirty))
}

// AppendDirtyKeys appends the dirty keys to dst in ascending order and
// returns the extended slice — DirtyKeys for callers that recycle a
// scratch buffer across write-back passes. It is an in-order walk of the
// tagged subtrees; nothing is sorted.
func (c *Core[E]) AppendDirtyKeys(dst []int64) []int64 {
	c.walk(0, true, func(lf *leaf[E], hi int64) bool {
		for m := lf.dirty; m != 0; m &= m - 1 {
			dst = append(dst, hi<<fanBits|int64(bits.TrailingZeros64(m)))
		}
		return true
	})
	return dst
}

// DirtyEntries returns the dirty entries in ascending key order.
func (c *Core[E]) DirtyEntries() []E {
	out := make([]E, 0, c.ndirty)
	c.walk(0, true, func(lf *leaf[E], _ int64) bool {
		for m := lf.dirty; m != 0; m &= m - 1 {
			out = append(out, lf.slots[bits.TrailingZeros64(m)])
		}
		return true
	})
	return out
}

// walk calls fn, in ascending key order, for every leaf that can hold a
// key ≥ from — only the dirty-tagged ones when tagged — passing the
// leaf's key prefix, until fn returns false. fn may change the words of
// the leaf it is given and the dirty tags above it.
func (c *Core[E]) walk(from int64, tagged bool, fn func(lf *leaf[E], hi int64) bool) {
	if from>>(fanBits*(c.levels+1)) != 0 {
		return // every key the tree can hold is smaller
	}
	if c.root != nil {
		c.root.walk(c.levels, 0, from, tagged, fn)
	} else if lf := c.leaf0; lf != nil && (!tagged || lf.dirty != 0) {
		fn(lf, 0)
	}
}

// walk is Core.walk below n, a level-l node whose keys share prefix
// (key >> fanBits*(l+1) == prefix).
func (n *inner[E]) walk(l int, prefix, from int64, tagged bool, fn func(*leaf[E], int64) bool) bool {
	m := n.present
	if tagged {
		m = n.dirty
	}
	if prefix == from>>(fanBits*(l+1)) {
		// n is on from's path: children left of it hold only smaller keys.
		m &^= 1<<(from>>(fanBits*l)&fanMask) - 1
	}
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		child := prefix<<fanBits | int64(i)
		if l > 1 {
			if !n.kids[i].walk(l-1, child, from, tagged, fn) {
				return false
			}
		} else if !fn(n.leaves[i], child) {
			return false
		}
	}
	return true
}

// OldestKey returns the key of the least recently used entry, the tail
// of the recency list, whatever its pin or dirty state. It reports false
// when the core is empty.
func (c *Core[E]) OldestKey() (int64, bool) {
	if n := c.rec.Back(); n != nil {
		return n.key, true
	}
	return 0, false
}

// evict takes the entry behind list node n out of the index and the list
// and returns it.
func (c *Core[E]) evict(n *Node) E {
	return c.unlink(c.find(n.key), n.key)
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
	if c.ndirty == c.n {
		// Nothing is clean, so nothing to find: a cache full of dirty
		// entries (a log rewritten faster than it is flushed) must not
		// pay a walk of the whole list per insertion to learn that.
		return zero, false
	}
	// Bound the walk: every rotation restamps, so after Len() rotations
	// each entry's stamp is current and the next pass evicts.
	budget := 2*c.rec.Len() + 1
	for n := c.rec.Back(); n != nil && budget > 0; budget-- {
		older := c.rec.olderToNewer(n)
		if n.refs > 0 || n.dirty {
			n = older
			continue
		}
		if recency != nil {
			e, _ := c.Peek(n.key)
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
		return c.evict(n), true
	}
	return zero, false
}

// DropClean removes every clean, unpinned entry (drop_caches) and
// reports how many were dropped.
func (c *Core[E]) DropClean() int { return c.DropCleanFunc(nil) }

// DropCleanFunc is DropClean with a per-entry callback: onDrop (when
// non-nil) receives each dropped entry, least recently used first, so
// the caller can recycle it through a free pool. The entry is already
// out of the cache when onDrop runs.
func (c *Core[E]) DropCleanFunc(onDrop func(E)) int {
	dropped := 0
	n := c.rec.Back()
	for n != nil {
		older := c.rec.olderToNewer(n)
		if n.refs == 0 && !n.dirty {
			e := c.evict(n)
			dropped++
			if onDrop != nil {
				onDrop(e)
			}
		}
		n = older
	}
	return dropped
}

// ForEach calls fn for every cached entry in ascending key order until
// fn returns false. fn must not mutate the Core.
func (c *Core[E]) ForEach(fn func(key int64, e E) bool) {
	c.walk(0, false, func(lf *leaf[E], hi int64) bool {
		for m := lf.present; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if !fn(hi<<fanBits|int64(i), lf.slots[i]) {
				return false
			}
		}
		return true
	})
}

// Clear drops every entry and all dirty state.
func (c *Core[E]) Clear() { c.ClearFunc(nil) }

// ClearFunc is Clear with a per-entry callback: onDrop (when non-nil)
// receives each dropped entry — dirty ones included — in ascending key
// order, so the caller can recycle them through a free pool. The nodes
// go with the entries: the Core is back to its zero value.
func (c *Core[E]) ClearFunc(onDrop func(E)) {
	c.ForEach(func(_ int64, e E) bool {
		n := e.LRUNode()
		c.rec.Remove(n)
		n.dirty = false
		if onDrop != nil {
			onDrop(e)
		}
		return true
	})
	*c = Core[E]{}
}
