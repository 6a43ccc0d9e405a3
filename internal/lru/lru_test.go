package lru

import (
	"fmt"
	"math/rand"
	"testing"
)

// ent is the minimal cache entry used throughout these tests.
type ent struct {
	node Node
	val  int
	use  int64 // out-of-band recency for second-chance tests
}

func (e *ent) LRUNode() *Node { return &e.node }

func TestListOrder(t *testing.T) {
	var l List
	a, b, c := &ent{val: 1}, &ent{val: 2}, &ent{val: 3}
	l.PushFront(&a.node)
	l.PushFront(&b.node)
	l.PushFront(&c.node)
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Back() != &a.node {
		t.Fatalf("back = %v, want a", l.Back())
	}
	l.MoveToFront(&a.node)
	if l.Back() != &b.node {
		t.Fatalf("after MoveToFront(a): back = %v, want b", l.Back())
	}
	l.Remove(&b.node)
	if l.Len() != 2 || l.Back() != &c.node {
		t.Fatalf("after Remove(b): len=%d back=%v, want 2/c", l.Len(), l.Back())
	}
	l.Remove(&b.node) // removing twice is a no-op
	if l.Len() != 2 {
		t.Fatalf("double remove changed len to %d", l.Len())
	}
}

func TestCoreExactLRUEviction(t *testing.T) {
	var c Core[*ent]
	for i := 0; i < 4; i++ {
		c.Add(int64(i), &ent{val: i})
	}
	c.Get(0) // 0 becomes MRU; LRU order now 1,2,3,0
	for _, want := range []int64{1, 2, 3, 0} {
		e, ok := c.EvictScan(nil)
		if !ok {
			t.Fatalf("eviction ran dry; want key %d", want)
		}
		if e.node.Key() != want {
			t.Fatalf("evicted %d, want %d", e.node.Key(), want)
		}
	}
	if _, ok := c.EvictScan(nil); ok {
		t.Fatal("eviction from empty core succeeded")
	}
}

func TestCoreSkipsPinnedAndDirty(t *testing.T) {
	var c Core[*ent]
	pinned, dirty, clean := &ent{}, &ent{}, &ent{}
	c.Add(0, pinned)
	c.Add(1, dirty)
	c.Add(2, clean)
	pinned.node.refs++
	c.MarkDirty(1)

	e, ok := c.EvictScan(nil)
	if !ok || e != clean {
		t.Fatalf("evicted %v, want the clean entry", e)
	}
	if _, ok := c.EvictScan(nil); ok {
		t.Fatal("evicted a pinned or dirty entry")
	}
	pinned.node.refs--
	c.ClearDirty(1)
	if _, ok := c.EvictScan(nil); !ok {
		t.Fatal("no victim after unpin+clean")
	}
}

func TestCoreDirtySet(t *testing.T) {
	var c Core[*ent]
	for i := 0; i < 5; i++ {
		c.Add(int64(i), &ent{val: i})
	}
	for _, k := range []int64{3, 1, 4} {
		if !c.MarkDirty(k) {
			t.Fatalf("MarkDirty(%d) not newly dirty", k)
		}
	}
	if c.MarkDirty(3) {
		t.Fatal("re-dirtying 3 reported newly dirty")
	}
	if got := c.DirtyLen(); got != 3 {
		t.Fatalf("DirtyLen = %d, want 3", got)
	}
	if keys := c.DirtyKeys(); fmt.Sprint(keys) != "[1 3 4]" {
		t.Fatalf("DirtyKeys = %v, want sorted [1 3 4]", keys)
	}
	if n := c.ClearAllDirty(); n != 3 {
		t.Fatalf("ClearAllDirty = %d, want 3", n)
	}
	if c.DirtyLen() != 0 {
		t.Fatal("dirty state not cleared")
	}
	if e, ok := c.Peek(3); !ok || e.node.Dirty() {
		t.Fatal("entry missing or flag still dirty after ClearAllDirty")
	}
}

// TestCoreOldestKey: OldestKey is the recency tail through adds, touches,
// removes and evictions, whatever the tail's dirty state, and allocates
// nothing.
func TestCoreOldestKey(t *testing.T) {
	var c Core[*ent]
	if _, ok := c.OldestKey(); ok {
		t.Fatal("OldestKey reported a key on an empty core")
	}
	want := func(key int64) {
		t.Helper()
		if got, ok := c.OldestKey(); !ok || got != key {
			t.Fatalf("OldestKey = %d, %v; want %d, true", got, ok, key)
		}
	}
	for _, k := range []int64{0, 1, 5000, 2} {
		c.Add(k, &ent{val: int(k)})
		c.MarkDirty(k)
	}
	want(0)
	c.Get(0) // touched: the low key is no longer the oldest
	want(1)
	c.Peek(1) // a peek does not touch
	want(1)
	c.Remove(1)
	want(5000)
	c.ClearDirty(5000)
	if _, ok := c.EvictScan(nil); !ok {
		t.Fatal("EvictScan found no clean victim")
	}
	want(2)
	if n := testing.AllocsPerRun(100, func() { c.OldestKey() }); n != 0 {
		t.Fatalf("OldestKey allocates %.1f per call, want 0", n)
	}
	c.Clear()
	if _, ok := c.OldestKey(); ok {
		t.Fatal("OldestKey reported a key after Clear")
	}
}

func TestCoreRemoveClearsDirty(t *testing.T) {
	var c Core[*ent]
	c.Add(7, &ent{})
	c.MarkDirty(7)
	_, wasDirty, ok := c.Remove(7)
	if !ok || !wasDirty {
		t.Fatalf("Remove(7) = dirty=%v ok=%v, want true/true", wasDirty, ok)
	}
	if c.Len() != 0 || c.DirtyLen() != 0 {
		t.Fatal("remove left state behind")
	}
}

func TestCoreSecondChance(t *testing.T) {
	var c Core[*ent]
	recency := func(e *ent) int64 { return e.use }
	a, b := &ent{}, &ent{}
	c.Add(0, a)
	c.Add(1, b)
	// Reader touched a out-of-band (like PRead under the shared lock):
	// the scan must rotate a to the front and evict b instead.
	a.use = 10
	e, ok := c.EvictScan(recency)
	if !ok || e != b {
		t.Fatalf("evicted %v, want b (a was touched)", e)
	}
	// a's stamp caught up; the next scan evicts it.
	e, ok = c.EvictScan(recency)
	if !ok || e != a {
		t.Fatalf("evicted %v, want a", e)
	}
}

func TestCoreSecondChanceAllTouched(t *testing.T) {
	var c Core[*ent]
	recency := func(e *ent) int64 { return e.use }
	es := make([]*ent, 4)
	for i := range es {
		es[i] = &ent{use: int64(100 + i)}
		c.Add(int64(i), es[i])
	}
	// Every entry touched since positioning: the scan must still
	// terminate and evict exactly one entry.
	if _, ok := c.EvictScan(recency); !ok {
		t.Fatal("scan ran dry with all entries touched but clean")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d after one eviction, want 3", c.Len())
	}
}

func TestCoreDropClean(t *testing.T) {
	var c Core[*ent]
	for i := 0; i < 6; i++ {
		c.Add(int64(i), &ent{})
	}
	c.MarkDirty(2)
	e, _ := c.Peek(4)
	e.node.refs++
	if n := c.DropClean(); n != 4 {
		t.Fatalf("DropClean = %d, want 4", n)
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("dirty entry dropped")
	}
	if _, ok := c.Peek(4); !ok {
		t.Fatal("pinned entry dropped")
	}
}

// alloc is a fill that always allocates a fresh entry holding v.
func alloc(v int) func(*ent, bool) (*ent, error) {
	return func(*ent, bool) (*ent, error) { return &ent{val: v}, nil }
}

// get is Cache.Get for fills that cannot fail.
func get(t *testing.T, c *Cache[*ent], key int64, fill func(*ent, bool) (*ent, error)) (*ent, bool) {
	t.Helper()
	e, hit, err := c.Get(key, fill)
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	return e, hit
}

func TestCacheCapacityAndStats(t *testing.T) {
	c := New[*ent](2)
	for i := 0; i < 3; i++ {
		if _, hit := get(t, c, int64(i), alloc(i)); hit {
			t.Fatalf("unexpected hit for %d", i)
		}
		e, _ := get(t, c, int64(i), nil) // immediate re-get: hit
		c.Release(e)
		c.Release(e)
	}
	// Capacity 2: inserting block 2 evicted block 0, the exact LRU.
	if _, hit := get(t, c, 0, alloc(0)); hit {
		t.Fatal("block 0 should have been evicted")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 hits, 4 misses, 2 evictions", st)
	}
}

// TestCacheGetOrInsertHandsOverVictim: fill sees exactly the entry the
// miss evicted — unlinked, unpinned, clean — and nothing when the cache
// had room, the evictable entries were all pinned or dirty, or the key
// hit. A recycled victim is resident under its new key only.
func TestCacheGetOrInsertHandsOverVictim(t *testing.T) {
	c := New[*ent](2)
	var got []*ent // every victim fill was handed
	fill := func(v int) func(*ent, bool) (*ent, error) {
		return func(victim *ent, evicted bool) (*ent, error) {
			if !evicted {
				if victim != nil {
					t.Errorf("victim %v without an eviction", victim)
				}
				return &ent{val: v}, nil
			}
			if victim.node.Refs() != 0 || victim.node.Dirty() || victim.node.next != nil {
				t.Errorf("victim %d is pinned, dirty or still linked", victim.val)
			}
			got = append(got, victim)
			victim.node.ResetForReuse()
			victim.val = v
			return victim, nil
		}
	}
	e0, _ := get(t, c, 0, fill(0))
	e1, _ := get(t, c, 1, fill(1))
	if len(got) != 0 {
		t.Fatalf("victims while the cache had room: %v", got)
	}
	// Everything pinned: the cache overflows and there is no victim.
	e2, _ := get(t, c, 2, fill(2))
	if len(got) != 0 || c.Len() != 3 {
		t.Fatalf("pinned entry evicted: victims %v, len %d", got, c.Len())
	}
	c.Release(e0)
	c.Release(e1)
	c.Release(e2)
	if e, hit := get(t, c, 2, fill(-1)); !hit || len(got) != 0 {
		t.Fatalf("hit ran fill: hit=%v victims %v", hit, got)
	} else {
		c.Release(e)
	}
	// Overflowed by one: a miss evicts 0 then 1 and hands over the last.
	e3, _ := get(t, c, 3, fill(3))
	if len(got) != 1 || got[0] != e1 || e3 != e1 {
		t.Fatalf("victims = %v, want exactly block 1's entry recycled", got)
	}
	if e3.node.Key() != 3 || e3.node.Refs() != 1 || e3.val != 3 {
		t.Fatalf("recycled entry: key %d refs %d val %d", e3.node.Key(), e3.node.Refs(), e3.val)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("recycled entry still resident under its old key")
	}
	if keys := c.Keys(); len(keys) != 2 || keys[0] != 2 || keys[1] != 3 {
		t.Fatalf("resident keys = %v, want [2 3]", keys)
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestCacheFillBeforeInsert: an entry is not in the cache until its fill
// succeeds. During the fill the key is absent; a failed fill inserts
// nothing — the miss and the eviction it made room with are counted, the
// victim it was handed is gone with it — and the next miss on a cache
// with room is handed no victim.
func TestCacheFillBeforeInsert(t *testing.T) {
	c := New[*ent](2)
	for i := 0; i < 2; i++ {
		e, _ := get(t, c, int64(i), alloc(i))
		c.Release(e)
	}
	boom := fmt.Errorf("device error")
	var victim *ent
	e, hit, err := c.Get(7, func(v *ent, evicted bool) (*ent, error) {
		if _, ok := c.Peek(7); ok {
			t.Error("key 7 resident while its fill runs")
		}
		if !evicted || v.val != 0 {
			t.Errorf("fill handed victim %v (evicted %v), want block 0's entry", v, evicted)
		}
		victim = v
		return v, boom
	})
	if err != boom || hit || e != nil {
		t.Fatalf("failed fill: Get = %v, %v, %v; want nil, false, the fill error", e, hit, err)
	}
	if _, ok := c.Peek(7); ok || c.Len() != 1 {
		t.Fatalf("failed fill inserted: key 7 resident, len %d", c.Len())
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != 1 {
		t.Fatalf("resident keys = %v, want [1]", keys)
	}
	if st := c.Stats(); st != (Stats{Misses: 3, Evictions: 1}) {
		t.Fatalf("stats = %+v, want 3 misses and the one eviction", st)
	}
	e, _ = get(t, c, 7, func(v *ent, evicted bool) (*ent, error) {
		if evicted || v != nil {
			t.Errorf("a miss with room was handed %p (evicted %v); the failed fill's victim %p is gone", v, evicted, victim)
		}
		return &ent{val: 7}, nil
	})
	if e.val != 7 || e.node.Refs() != 1 || e.node.Key() != 7 {
		t.Fatalf("filled entry: val %d refs %d key %d", e.val, e.node.Refs(), e.node.Key())
	}
	if st := c.Stats(); st != (Stats{Misses: 4, Evictions: 1}) {
		t.Fatalf("stats = %+v, want 4 misses, 1 eviction", st)
	}
}

func TestCacheReleaseUnderflow(t *testing.T) {
	c := New[*ent](4)
	e, _ := get(t, c, 1, alloc(0))
	if !c.Release(e) {
		t.Fatal("first release failed")
	}
	if c.Release(e) {
		t.Fatal("double release succeeded")
	}
}

func TestCacheResetChecks(t *testing.T) {
	c := New[*ent](4)
	e, _ := get(t, c, 1, alloc(0))
	errBusy := fmt.Errorf("busy")
	err := c.Reset(func(e *ent) error {
		if e.LRUNode().Refs() != 0 {
			return errBusy
		}
		return nil
	})
	if err != errBusy {
		t.Fatalf("Reset with pinned entry = %v, want busy", err)
	}
	c.Release(e)
	if err := c.Reset(nil); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after Reset, want 0", c.Len())
	}
}

func TestCacheDirtyEntriesSorted(t *testing.T) {
	c := New[*ent](64)
	for i := 0; i < 16; i++ {
		e, _ := get(t, c, int64(i), alloc(i))
		c.MarkDirty(e)
		c.Release(e)
	}
	dirty := c.DirtyEntries()
	if len(dirty) != 16 {
		t.Fatalf("DirtyEntries = %d entries, want 16", len(dirty))
	}
	for i, e := range dirty {
		if e.LRUNode().Key() != int64(i) {
			t.Fatalf("dirty[%d].key = %d, want ascending order", i, e.LRUNode().Key())
		}
	}
}

// TestCacheChurnStaysBounded churns a cache with hits, misses that
// recycle their victim, and dirty marks: every entry comes back under
// the key asked for, and once the dirty entries (which cannot be
// evicted, so the cache may sit above capacity) are cleaned it drains
// back to capacity exactly.
func TestCacheChurnStaysBounded(t *testing.T) {
	c := New[*ent](128)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16000; i++ {
		key := rng.Int63n(512)
		e, _ := get(t, c, key, func(victim *ent, evicted bool) (*ent, error) {
			if !evicted {
				return &ent{}, nil
			}
			victim.node.ResetForReuse() // recycle, as fuse.UserDisk does
			return victim, nil
		})
		if e.LRUNode().Key() != key {
			t.Fatalf("entry for %d has key %d", key, e.LRUNode().Key())
		}
		if i%7 == 0 {
			c.MarkDirty(e)
		} else if i%11 == 0 {
			c.ClearDirty(e)
		}
		if !c.Release(e) {
			t.Fatal("release failed")
		}
	}
	for _, e := range c.DirtyEntries() {
		c.ClearDirty(e)
	}
	for i := 0; i < 200; i++ {
		e, _ := get(t, c, int64(1000+i), alloc(0))
		c.Release(e)
	}
	if got := c.Len(); got != 128 {
		t.Fatalf("len = %d after churn, want the capacity, 128", got)
	}
	if st := c.Stats(); st.Hits+st.Misses != 16200 {
		t.Fatalf("stats %+v do not add up to 16200 lookups", st)
	}
}
