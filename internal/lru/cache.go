package lru

import (
	"cmp"
	"slices"
	"sync"
)

// Stats counts cache traffic across all shards.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a capacity-bounded, reference-counted block cache: Core plus
// locking, statistics, and optional sharding by key.
//
// With shards == 1 (the default) eviction is exactly global LRU among
// clean, unpinned entries. With more shards, each shard holds
// capacity/shards entries under its own mutex and evicts its own LRU
// tail — hot multi-threaded workloads stop serializing on one lock at
// the cost of globally-exact victim selection.
type Cache[E Entry] struct {
	shards   []cacheShard[E]
	mask     int64
	shardCap int
}

type cacheShard[E Entry] struct {
	mu                      sync.Mutex
	core                    Core[E]
	hits, misses, evictions int64
	_                       [40]byte // keep neighboring shard locks off one cache line
}

// New creates a cache bounded at capacity entries split over the given
// number of shards (rounded up to a power of two; values < 1 mean one
// shard).
func New[E Entry](capacity, shards int) *Cache[E] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Cache[E]{
		shards:   make([]cacheShard[E], n),
		mask:     int64(n - 1),
		shardCap: (capacity + n - 1) / n,
	}
}

func (c *Cache[E]) shard(key int64) *cacheShard[E] {
	return &c.shards[key&c.mask]
}

// GetOrInsert returns the entry for key with its reference count
// incremented, creating it with mk on a miss. On a miss the shard evicts
// clean, unpinned entries in LRU order until under capacity (entries
// stay resident while everything is pinned or dirty), then inserts the
// new entry with one reference. mk receives the entry that eviction just
// unlinked (the last one, if the cache was overflowed and several went)
// and may return it reset instead of allocating; evicted is false when
// nothing was evicted. A victim is unpinned, so only a caller of Peek
// could still be reading it. mk runs under the shard lock and must only
// allocate or reset.
func (c *Cache[E]) GetOrInsert(key int64, mk func(victim E, evicted bool) E) (e E, hit bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.core.Get(key); ok {
		e.LRUNode().refs.Add(1)
		s.hits++
		s.mu.Unlock()
		return e, true
	}
	s.misses++
	var victim E
	evicted := false
	for s.core.Len() >= c.shardCap {
		v, ok := s.core.EvictScan(nil)
		if !ok {
			break
		}
		s.evictions++
		victim, evicted = v, true
	}
	e = mk(victim, evicted)
	e.LRUNode().refs.Store(1)
	s.core.Add(key, e)
	s.mu.Unlock()
	return e, false
}

// Release drops one reference. It reports false on a release of an
// already-unreferenced entry (a caller bug).
func (c *Cache[E]) Release(e E) bool {
	n := e.LRUNode()
	if n.refs.Add(-1) < 0 {
		n.refs.Add(1)
		return false
	}
	return true
}

// MarkDirty flags e dirty and records it in its shard's dirty set.
func (c *Cache[E]) MarkDirty(e E) {
	n := e.LRUNode()
	s := c.shard(n.key)
	s.mu.Lock()
	if cur, ok := s.core.Peek(n.key); ok && cur.LRUNode() == n {
		s.core.MarkDirty(n.key)
	} else {
		// The entry was dropped from the cache (read-error path); keep
		// the per-entry flag truthful for the holder of the reference.
		n.dirty.Store(true)
	}
	s.mu.Unlock()
}

// ClearDirty marks e clean, removing it from its shard's dirty set.
func (c *Cache[E]) ClearDirty(e E) {
	n := e.LRUNode()
	s := c.shard(n.key)
	s.mu.Lock()
	if cur, ok := s.core.Peek(n.key); ok && cur.LRUNode() == n {
		s.core.ClearDirty(n.key)
	} else {
		n.dirty.Store(false)
	}
	s.mu.Unlock()
}

// Peek returns the resident entry for key without taking a reference or
// touching recency — a coherence probe for the direct-I/O path. The
// caller gets no pin: the entry may be evicted concurrently, so it must
// only read state that stays valid after unlinking (the data slice, the
// fill state).
func (c *Cache[E]) Peek(key int64) (e E, ok bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok = s.core.Peek(key)
	s.mu.Unlock()
	return e, ok
}

// DropClean removes every clean, unpinned entry across all shards
// (drop_caches for a block cache) and reports how many were dropped.
// Dirty or referenced entries stay resident.
func (c *Cache[E]) DropClean() int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		dropped += s.core.DropClean()
		s.mu.Unlock()
	}
	return dropped
}

// Keys snapshots every resident key in ascending order (diagnostics and
// cache-residency tests).
func (c *Cache[E]) Keys() []int64 {
	var out []int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.core.ForEach(func(key int64, _ E) bool {
			out = append(out, key)
			return true
		})
		s.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// Drop unconditionally removes the entry for key (read-error path),
// regardless of references or dirtiness. It does not count as an
// eviction.
func (c *Cache[E]) Drop(key int64) (E, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, _, ok := s.core.Remove(key)
	s.mu.Unlock()
	return e, ok
}

// DirtyEntries snapshots every dirty entry across all shards in
// ascending key order, so sync paths visit exactly the dirty set in a
// deterministic order.
func (c *Cache[E]) DirtyEntries() []E {
	var out []E
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out = append(out, s.core.DirtyEntries()...)
		s.mu.Unlock()
	}
	if len(c.shards) > 1 {
		slices.SortFunc(out, func(a, b E) int {
			return cmp.Compare(a.LRUNode().key, b.LRUNode().key)
		})
	}
	return out
}

// Len reports the total number of cached entries.
func (c *Cache[E]) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.core.Len()
		s.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the cache counters summed over shards.
func (c *Cache[E]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}

// Reset drops every entry after check approves each one (InvalidateAll:
// check rejects referenced buffers). All shard locks are held for the
// duration, so the check-then-clear is atomic with respect to cache
// users. Statistics are preserved.
func (c *Cache[E]) Reset(check func(E) error) error {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	defer func() {
		for i := range c.shards {
			c.shards[i].mu.Unlock()
		}
	}()
	if check != nil {
		var err error
		for i := range c.shards {
			c.shards[i].core.ForEach(func(_ int64, e E) bool {
				if cerr := check(e); cerr != nil {
					err = cerr
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	for i := range c.shards {
		c.shards[i].core.Clear()
	}
	return nil
}
