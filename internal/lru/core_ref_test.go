package lru

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refCore is the engine this package shipped before the radix index —
// key→entry map, recency list, explicit dirty-set map, a sort per
// write-back — kept verbatim as the oracle for TestCoreMatchesReference.
// It is slow and obviously right.
type refCore[E Entry] struct {
	entries map[int64]E
	rec     List
	dirty   map[int64]struct{}
}

// Len reports the number of cached entries.
func (c *refCore[E]) Len() int { return len(c.entries) }

// DirtyLen reports the number of dirty entries.
func (c *refCore[E]) DirtyLen() int { return len(c.dirty) }

// Peek returns the entry for key without touching recency state.
func (c *refCore[E]) Peek(key int64) (E, bool) {
	e, ok := c.entries[key]
	return e, ok
}

// Get returns the entry for key and marks it most recently used.
func (c *refCore[E]) Get(key int64) (E, bool) {
	e, ok := c.entries[key]
	if ok {
		c.rec.MoveToFront(e.LRUNode())
	}
	return e, ok
}

// Add inserts e under key at the MRU end. The key must not be present.
func (c *refCore[E]) Add(key int64, e E) {
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
func (c *refCore[E]) Remove(key int64) (e E, wasDirty, ok bool) {
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
func (c *refCore[E]) MarkDirty(key int64) bool {
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
func (c *refCore[E]) ClearDirty(key int64) bool {
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
func (c *refCore[E]) ClearAllDirty() int {
	n := len(c.dirty)
	for key := range c.dirty {
		if e, ok := c.entries[key]; ok {
			e.LRUNode().dirty = false
		}
	}
	clear(c.dirty)
	return n
}

// AppendDirtyKeys appends the dirty keys to dst in ascending order and
// returns the extended slice. The appended region (not all of dst) is
// sorted.
func (c *refCore[E]) AppendDirtyKeys(dst []int64) []int64 {
	start := len(dst)
	for key := range c.dirty {
		dst = append(dst, key)
	}
	slices.Sort(dst[start:])
	return dst
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
func (c *refCore[E]) EvictScan(recency func(E) int64) (E, bool) {
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
func (c *refCore[E]) DropClean() int { return c.DropCleanFunc(nil) }

// DropCleanFunc is DropClean with a per-entry callback: onDrop (when
// non-nil) receives each dropped entry so the caller can recycle it
// through a free pool. The entry is already out of the cache when onDrop
// runs.
func (c *refCore[E]) DropCleanFunc(onDrop func(E)) int {
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
func (c *refCore[E]) ForEach(fn func(key int64, e E) bool) {
	for key, e := range c.entries {
		if !fn(key, e) {
			return
		}
	}
}

// ClearFunc drops every entry and all dirty state. onDrop (when non-nil)
// receives each dropped entry — dirty ones included — so the caller can
// recycle them through a free pool.
func (c *refCore[E]) ClearFunc(onDrop func(E)) {
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

// pair drives a Core and the reference with the same calls. Each side
// has its own entries (a Node can be on one list only); ent.val is the
// identity the two sides are compared by.
type pair struct {
	t    *testing.T
	got  Core[*ent]
	ref  refCore[*ent]
	step int
	what string
}

func (p *pair) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d %s: %s", p.step, p.what, fmt.Sprintf(format, args...))
}

// same requires the two sides to have returned the same entry (or both
// none) and the same flags.
func (p *pair) same(g, r *ent, gflags, rflags [2]bool) {
	p.t.Helper()
	if (g == nil) != (r == nil) || g != nil && g.val != r.val || gflags != rflags {
		p.failf("got (%v, %v), reference (%v, %v)", entVal(g), gflags, entVal(r), rflags)
	}
}

func entVal(e *ent) any {
	if e == nil {
		return nil
	}
	return e.val
}

func vals(es []*ent) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.val
	}
	return out
}

// listKeys is the recency list from the LRU end.
func listKeys(l *List) []int64 {
	var out []int64
	for n := l.Back(); n != nil; n = l.olderToNewer(n) {
		out = append(out, n.key)
	}
	return out
}

// check compares every observable of the two sides, and the new index's
// own invariants: dirty ⊆ present in every leaf, an interior tag set
// exactly when the child below has a dirty slot, the counters equal to
// the popcounts.
func (p *pair) check() {
	p.t.Helper()
	g, r := &p.got, &p.ref
	if g.Len() != r.Len() || g.DirtyLen() != r.DirtyLen() {
		p.failf("Len/DirtyLen %d/%d, reference %d/%d", g.Len(), g.DirtyLen(), r.Len(), r.DirtyLen())
	}
	prefix := []int64{-7}
	gk, rk := g.AppendDirtyKeys(slices.Clone(prefix)), r.AppendDirtyKeys(slices.Clone(prefix))
	if !slices.Equal(gk, rk) {
		p.failf("AppendDirtyKeys %v, reference %v", gk, rk)
	}
	gold, gok := g.OldestKey()
	var rold int64
	if n := r.rec.Back(); n != nil {
		rold = n.key
	}
	if gold != rold || gok != (r.Len() > 0) {
		p.failf("OldestKey (%d, %v), reference list tail %d of %d entries", gold, gok, rold, r.Len())
	}
	if gl, rl := listKeys(&g.rec), listKeys(&r.rec); !slices.Equal(gl, rl) {
		p.failf("recency list %v, reference %v", gl, rl)
	}
	var gkeys, rkeys []int64
	g.ForEach(func(key int64, e *ent) bool {
		if re, ok := r.Peek(key); !ok || re.val != e.val || re.node.Dirty() != e.node.Dirty() {
			p.failf("ForEach yields key %d (val %d, dirty %v) the reference does not hold that way", key, e.val, e.node.Dirty())
		}
		gkeys = append(gkeys, key)
		return true
	})
	// An early stop ends the walk at once, above the leaves too.
	visited := 0
	g.ForEach(func(int64, *ent) bool { visited++; return visited <= len(gkeys)/2 })
	if want := min(len(gkeys)/2+1, len(gkeys)); visited != want {
		p.failf("ForEach visited %d entries after fn returned false at %d", visited, want)
	}
	r.ForEach(func(key int64, _ *ent) bool { rkeys = append(rkeys, key); return true })
	slices.Sort(rkeys)
	if !slices.Equal(gkeys, rkeys) {
		p.failf("ForEach order %v, want the reference's keys ascending %v", gkeys, rkeys)
	}

	n, ndirty := 0, 0
	leafOK := func(lf *leaf[*ent], parent *inner[*ent]) uint64 {
		if lf.dirty&^lf.present != 0 || lf.parent != parent {
			p.failf("leaf present %#x dirty %#x parent %p, want dirty ⊆ present and parent %p", lf.present, lf.dirty, lf.parent, parent)
		}
		n += bits.OnesCount64(lf.present)
		ndirty += bits.OnesCount64(lf.dirty)
		return lf.dirty
	}
	var innerOK func(in *inner[*ent], l int) uint64
	innerOK = func(in *inner[*ent], l int) uint64 {
		for i := 0; i < fan; i++ {
			var exists bool
			var below uint64
			if l > 1 {
				if exists = in.kids[i] != nil; exists {
					below = innerOK(in.kids[i], l-1)
				}
			} else if exists = in.leaves[i] != nil; exists {
				below = leafOK(in.leaves[i], in)
			}
			if exists != (in.present>>i&1 != 0) || (below != 0) != (in.dirty>>i&1 != 0) {
				p.failf("level-%d node child %d: exists %v, dirty below %v, but present %#x tags %#x", l, i, exists, below != 0, in.present, in.dirty)
			}
		}
		return in.dirty
	}
	switch {
	case g.root != nil:
		if g.leaf0 != nil || g.levels < 1 {
			p.failf("root with leaf0 %p at %d levels", g.leaf0, g.levels)
		}
		innerOK(g.root, g.levels)
	case g.leaf0 != nil:
		leafOK(g.leaf0, nil)
	}
	if n != g.Len() || ndirty != g.DirtyLen() {
		p.failf("index holds %d entries, %d dirty; counters say %d, %d", n, ndirty, g.Len(), g.DirtyLen())
	}
}

// drain runs EvictScan on both sides until neither finds a victim and
// requires the same victim sequence.
func (p *pair) drain(recency func(*ent) int64) {
	p.t.Helper()
	for {
		g, gok := p.got.EvictScan(recency)
		r, rok := p.ref.EvictScan(recency)
		p.same(g, r, [2]bool{gok}, [2]bool{rok})
		p.check()
		if !gok {
			return
		}
	}
}

// TestCoreMatchesReference drives the radix-indexed Core and the map
// reference with identical seeded call streams over four key shapes —
// dense, two far-apart clusters, one leaf, and a range that gains a tree
// level every 500 calls while dirty entries are resident — and compares
// every return value, the dirty views, the recency list and every
// eviction victim after every call.
func TestCoreMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		key  func(r *rand.Rand, step int) int64
	}{
		{"dense", func(r *rand.Rand, _ int) int64 { return r.Int63n(300) }},
		{"clusters", func(r *rand.Rand, _ int) int64 {
			if r.Intn(2) == 0 {
				return r.Int63n(150)
			}
			return 1<<40 - 75 + r.Int63n(150)
		}},
		{"single-leaf", func(r *rand.Rand, _ int) int64 { return r.Int63n(fan) }},
		{"growing", func(r *rand.Rand, step int) int64 {
			return r.Int63n(8) << (fanBits * r.Intn(min(step/500, 10)+1))
		}},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				diffRun(t, rand.New(rand.NewSource(seed)), sh.key, sh.name == "single-leaf")
			})
		}
	}
}

func diffRun(t *testing.T, rng *rand.Rand, key func(*rand.Rand, int) int64, singleLeaf bool) {
	p := &pair{t: t}
	use := func(e *ent) int64 { return e.use }
	nextVal := 0
	for p.step = 0; p.step < 6000; p.step++ {
		k := key(rng, p.step)
		switch op := rng.Intn(1000); {
		case op < 300:
			p.what = fmt.Sprintf("Add(%d)", k)
			if _, ok := p.ref.Peek(k); ok {
				continue
			}
			nextVal++
			p.got.Add(k, &ent{val: nextVal})
			p.ref.Add(k, &ent{val: nextVal})
		case op < 400:
			p.what = fmt.Sprintf("Peek(%d)", k)
			g, gok := p.got.Peek(k)
			r, rok := p.ref.Peek(k)
			p.same(g, r, [2]bool{gok}, [2]bool{rok})
		case op < 500:
			p.what = fmt.Sprintf("Get(%d)", k)
			g, gok := p.got.Get(k)
			r, rok := p.ref.Get(k)
			p.same(g, r, [2]bool{gok}, [2]bool{rok})
		case op < 580:
			p.what = fmt.Sprintf("Remove(%d)", k)
			g, gd, gok := p.got.Remove(k)
			r, rd, rok := p.ref.Remove(k)
			p.same(g, r, [2]bool{gd, gok}, [2]bool{rd, rok})
			if gok && (g.node.Dirty() || r.node.Dirty()) {
				p.failf("removed entry still flagged dirty")
			}
		case op < 730:
			p.what = fmt.Sprintf("MarkDirty(%d)", k)
			if g, r := p.got.MarkDirty(k), p.ref.MarkDirty(k); g != r {
				p.failf("got %v, reference %v", g, r)
			}
		case op < 800:
			p.what = fmt.Sprintf("ClearDirty(%d)", k)
			if g, r := p.got.ClearDirty(k), p.ref.ClearDirty(k); g != r {
				p.failf("got %v, reference %v", g, r)
			}
		case op < 815:
			p.what = "ClearAllDirty"
			if g, r := p.got.ClearAllDirty(), p.ref.ClearAllDirty(); g != r {
				p.failf("got %d, reference %d", g, r)
			}
		case op < 865:
			// A reader's touch: second-chance recency, no list motion.
			p.what = fmt.Sprintf("touch(%d)", k)
			if g, ok := p.got.Peek(k); ok {
				r, _ := p.ref.Peek(k)
				g.use, r.use = int64(p.step), int64(p.step)
			}
		case op < 895:
			p.what = fmt.Sprintf("pin/unpin(%d)", k)
			if g, ok := p.got.Peek(k); ok {
				r, _ := p.ref.Peek(k)
				if g.node.Refs() > 0 {
					g.node.Unpin()
					r.node.Unpin()
				} else {
					g.node.Pin()
					r.node.Pin()
				}
			}
		case op < 935:
			p.what = "EvictScan(nil)"
			g, gok := p.got.EvictScan(nil)
			r, rok := p.ref.EvictScan(nil)
			p.same(g, r, [2]bool{gok}, [2]bool{rok})
		case op < 975:
			p.what = "EvictScan(second chance)"
			g, gok := p.got.EvictScan(use)
			r, rok := p.ref.EvictScan(use)
			p.same(g, r, [2]bool{gok}, [2]bool{rok})
		case op < 980:
			p.what = "drain(nil)"
			p.drain(nil)
		case op < 985:
			p.what = "drain(second chance)"
			p.drain(use)
		case op < 990:
			p.what = "DropCleanFunc"
			var gd, rd []*ent
			g := p.got.DropCleanFunc(func(e *ent) { gd = append(gd, e) })
			r := p.ref.DropCleanFunc(func(e *ent) { rd = append(rd, e) })
			if g != r || !slices.Equal(vals(gd), vals(rd)) {
				p.failf("dropped %d %v, reference %d %v", g, vals(gd), r, vals(rd))
			}
		case op < 997:
			// The reference has no range removal: it removes the same
			// keys one by one, ascending.
			p.what = fmt.Sprintf("RemoveFrom(%d)", k)
			var doomed []int64
			p.ref.ForEach(func(key int64, _ *ent) bool {
				if key >= k {
					doomed = append(doomed, key)
				}
				return true
			})
			slices.Sort(doomed)
			var gd, rd []*ent
			for _, key := range doomed {
				r, _, _ := p.ref.Remove(key)
				rd = append(rd, r)
			}
			g := p.got.RemoveFrom(k, func(e *ent) { gd = append(gd, e) })
			if g != len(doomed) || !slices.Equal(vals(gd), vals(rd)) {
				p.failf("removed %d %v, want %d %v", g, vals(gd), len(doomed), vals(rd))
			}
			for _, e := range gd {
				if e.node.Dirty() {
					p.failf("entry %d handed to onDrop still dirty", e.val)
				}
			}
		default:
			// Clear drops in key order where the reference used map
			// order: compare the dropped sets.
			p.what = "ClearFunc"
			var gd, rd []int
			p.got.ClearFunc(func(e *ent) { gd = append(gd, e.val) })
			p.ref.ClearFunc(func(e *ent) { rd = append(rd, e.val) })
			slices.Sort(gd)
			slices.Sort(rd)
			if !slices.Equal(gd, rd) {
				p.failf("dropped %v, reference %v", gd, rd)
			}
		}
		p.check()
		if singleLeaf && (p.got.root != nil || p.got.levels != 0) {
			p.failf("keys below %d built an interior node", fan)
		}
	}
}

// TestCoreNegativeKeyPanics: a negative key is a programming error on
// every entry point that takes one.
func TestCoreNegativeKeyPanics(t *testing.T) {
	for name, call := range map[string]func(c *Core[*ent]){
		"Peek":        func(c *Core[*ent]) { c.Peek(-1) },
		"Get":         func(c *Core[*ent]) { c.Get(-1) },
		"Add":         func(c *Core[*ent]) { c.Add(-1, &ent{}) },
		"Remove":      func(c *Core[*ent]) { c.Remove(-64) },
		"MarkDirty":   func(c *Core[*ent]) { c.MarkDirty(-1 << 40) },
		"ClearDirty":  func(c *Core[*ent]) { c.ClearDirty(-1) },
		"RemoveFrom":  func(c *Core[*ent]) { c.RemoveFrom(-1, nil) },
		"Peek/filled": func(c *Core[*ent]) { c.Add(0, &ent{}); c.Add(5000, &ent{}); c.Peek(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on a negative key")
				}
			}()
			var c Core[*ent]
			call(&c)
		})
	}
}

// TestCoreAddAfterClear: ClearFunc frees the nodes and with them the cursor,
// so an Add right after lands in the new tree, on both sides of a leaf
// boundary.
func TestCoreAddAfterClear(t *testing.T) {
	var c Core[*ent]
	for _, k := range []int64{3, 70, 9000} {
		c.Add(k, &ent{val: int(k)})
	}
	c.MarkDirty(9000)
	c.ClearFunc(nil) // the cursor was on 9000's leaf
	if c.Len() != 0 || c.DirtyLen() != 0 {
		t.Fatalf("Len/DirtyLen %d/%d after Clear", c.Len(), c.DirtyLen())
	}
	c.Add(9001, &ent{val: 1})
	c.Add(2, &ent{val: 2})
	for k, want := range map[int64]int{9001: 1, 2: 2} {
		if e, ok := c.Peek(k); !ok || e.val != want {
			t.Fatalf("Peek(%d) = %v, %v after Clear and Add, want val %d", k, entVal(e), ok, want)
		}
	}
	if _, ok := c.Peek(9000); ok {
		t.Fatal("key 9000 survived Clear")
	}
	var keys []int64
	c.ForEach(func(k int64, _ *ent) bool { keys = append(keys, k); return true })
	if !slices.Equal(keys, []int64{2, 9001}) {
		t.Fatalf("ForEach after Clear and Add: %v, want [2 9001]", keys)
	}
}

// TestCoreRootGrowthKeepsDirtyTag: a dirty entry in a small tree stays
// findable through the tags as the tree grows a level at a time, up to
// the largest key.
func TestCoreRootGrowthKeepsDirtyTag(t *testing.T) {
	var c Core[*ent]
	c.Add(3, &ent{val: 3})
	c.MarkDirty(3)
	want := []int64{3}
	for _, k := range []int64{64, 5000, 1 << 20, 1 << 40, 1<<62 + 9, 1<<63 - 1} {
		c.Add(k, &ent{val: 1})
		if got := c.AppendDirtyKeys(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendDirtyKeys = %v after growing to key %d, want %v", got, k, want)
		}
		c.MarkDirty(k)
		want = append(want, k)
		if got := c.AppendDirtyKeys(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendDirtyKeys = %v after dirtying key %d, want %v", got, k, want)
		}
	}
	if c.ClearAllDirty() != len(want) || c.DirtyLen() != 0 {
		t.Fatalf("ClearAllDirty left %d dirty", c.DirtyLen())
	}
	if got := c.AppendDirtyKeys(nil); len(got) != 0 {
		t.Fatalf("AppendDirtyKeys = %v after ClearAllDirty", got)
	}
	if n := c.RemoveFrom(1<<40, nil); n != 3 || c.Len() != 4 {
		t.Fatalf("RemoveFrom(1<<40) removed %d leaving %d, want 3 leaving 4", n, c.Len())
	}
}
