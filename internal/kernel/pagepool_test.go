package kernel

import (
	"bytes"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/fsapi"
)

// pageMount is a mount with no file system under it: enough to own pages.
func pageMount() *Mount {
	return newMount(New(costmodel.Fast()), "none", "/", nil, nil)
}

// TestPagePoolZeroing pins the contents policy: a page asked for zeroed
// reads as zeros even when it last held file contents (the beyond-EOF
// skip fill depends on it), fresh arena memory is zeros, a page asked
// for un-zeroed is handed over as it was put — the clear the fill paths
// no longer pay for — and a shared buffer never enters the pool.
func TestPagePoolZeroing(t *testing.T) {
	m := pageMount()
	for i := 0; i < 3*arenaPages; i++ {
		pg := m.getPage(true)
		for j, b := range pg.data {
			if b != 0 {
				t.Fatalf("iter %d: getPage(zeroed) returned dirty byte %#x at offset %d", i, b, j)
			}
		}
		// Dirty every byte and hand the page back; the next zeroed get
		// must not observe any of it.
		for j := range pg.data {
			pg.data[j] = byte(i + j + 1)
		}
		pg.lastUse = int64(i + 1)
		pg.readyAt = int64(i + 1)
		m.putPage(pg)
	}

	fresh := pageMount().getPage(false)
	for j, b := range fresh.data {
		if b != 0 {
			t.Fatalf("fresh arena page has byte %#x at offset %d", b, j)
		}
	}

	pg := m.getPage(false)
	for j := range pg.data {
		pg.data[j] = 0xA5
	}
	m.putPage(pg)
	again := m.getPage(false)
	if again != pg || again.data[0] != 0xA5 || again.data[fsapi.PageSize-1] != 0xA5 {
		t.Fatal("un-zeroed get cleared (or did not reuse) the page just freed")
	}

	// A shared page's buffer is somebody else's: freeing the page recycles
	// the struct alone, the next page gets a buffer of the pool's own (and
	// zeros when it asks for them), and unshare swaps such a buffer in,
	// with or without the old contents.
	view := bytes.Repeat([]byte{0xEE}, fsapi.PageSize)
	again.data, again.shared = view, true // (its own buffer is simply dropped)
	m.putPage(again)
	next := m.getPage(true)
	if next != again || &next.data[0] == &view[0] || next.shared {
		t.Fatal("a shared buffer was recycled with its page")
	}
	for j, b := range next.data {
		if b != 0 {
			t.Fatalf("getPage(zeroed) after a shared page returned byte %#x at offset %d", b, j)
		}
	}
	next.data, next.shared = view, true
	m.unshare(next, true)
	if next.shared || &next.data[0] == &view[0] || !bytes.Equal(next.data, view) {
		t.Fatal("unshare(keep) did not move the contents into a private buffer")
	}
	next.data, next.shared = view, true
	m.unshare(next, false)
	if next.shared || &next.data[0] == &view[0] || len(next.data) != fsapi.PageSize {
		t.Fatal("unshare did not swap a private buffer in")
	}
	if view[0] != 0xEE || view[fsapi.PageSize-1] != 0xEE {
		t.Fatal("the shared buffer was written")
	}
}

// TestPagePoolResetState verifies putPage clears the policy state so a
// recycled page cannot inherit recency, readiness, or a pin from its
// previous life.
func TestPagePoolResetState(t *testing.T) {
	m := pageMount()
	pg := m.getPage(true)
	pg.lastUse = 42
	pg.readyAt = 99
	pg.node.Pin()
	m.putPage(pg)

	got := m.getPage(false) // the free list is LIFO
	if got != pg {
		t.Fatal("free list did not hand back the page just freed")
	}
	if got.lastUse != 0 {
		t.Errorf("recycled page lastUse = %d, want 0", got.lastUse)
	}
	if got.readyAt != 0 {
		t.Errorf("recycled page readyAt = %d, want 0", got.readyAt)
	}
	if got.node.Refs() != 0 {
		t.Errorf("recycled page refs = %d, want 0", got.node.Refs())
	}
	m.putPage(nil) // Remove's zero entry on a missing key
}

// TestPagePoolNoAliasing verifies no page is handed out twice: across
// several arenas and a round of recycling, live pages are distinct
// structs over disjoint backing arrays, and writing through a recycled
// page cannot scribble on one still held.
func TestPagePoolNoAliasing(t *testing.T) {
	m := pageMount()
	const n = 2*arenaPages + 5
	live := make(map[*page]byte, n)
	take := func(tag byte) *page {
		pg := m.getPage(false)
		if _, dup := live[pg]; dup {
			t.Fatalf("page %p handed out while still held", pg)
		}
		if len(pg.data) != fsapi.PageSize || cap(pg.data) != fsapi.PageSize {
			t.Fatalf("page data len/cap = %d/%d, want %d (a longer cap reaches the neighbour's bytes)", len(pg.data), cap(pg.data), fsapi.PageSize)
		}
		for i := range pg.data {
			pg.data[i] = tag
		}
		live[pg] = tag
		return pg
	}
	var held []*page
	for i := 0; i < n; i++ {
		held = append(held, take(byte(i%250+1)))
	}
	// Free every third page and take as many again: the recycled arrays
	// now back new pages with a different tag.
	for i := 0; i < n; i += 3 {
		delete(live, held[i])
		m.putPage(held[i])
	}
	for i := 0; i < n; i += 3 {
		take(0xFF)
	}
	for pg, tag := range live {
		for i, b := range pg.data {
			if b != tag {
				t.Fatalf("page %p mutated at %d: %#x, want %#x", pg, i, b, tag)
			}
		}
	}
}
