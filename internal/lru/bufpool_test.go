package lru

import (
	"testing"

	"bento/internal/vclock"
)

// TestBufPoolReuse verifies Get returns a previously Put buffer (LIFO)
// instead of allocating, and that buffers keep their size class.
func TestBufPoolReuse(t *testing.T) {
	p := NewBufPool(512)
	b := p.Get()
	if len(b) != 512 {
		t.Fatalf("Get returned %d bytes, want 512", len(b))
	}
	b[0] = 0xEE
	p.Put(b)
	b2 := p.Get()
	if &b2[0] != &b[0] {
		t.Error("Get after Put allocated a fresh buffer instead of reusing")
	}
	if len(b2) != 512 {
		t.Fatalf("reused buffer has %d bytes, want 512", len(b2))
	}
}

// TestBufPoolContentsUnspecified pins the documented policy: Get does
// NOT zero. Callers that need zeros clear explicitly; pinning the policy
// here keeps it a conscious choice at every call site.
func TestBufPoolContentsUnspecified(t *testing.T) {
	p := NewBufPool(64)
	b := p.Get()
	for i := range b {
		b[i] = 0x77
	}
	p.Put(b)
	b2 := p.Get()
	if &b2[0] == &b[0] && b2[0] != 0x77 {
		t.Error("pool zeroed a reused buffer; policy is unspecified contents")
	}
}

// TestBufPoolWrongSizeDropped verifies a short buffer handed back by
// mistake is dropped, not recycled into the size class, and that a
// resliced borrow of full capacity is restored to full length.
func TestBufPoolWrongSizeDropped(t *testing.T) {
	p := NewBufPool(256)
	p.Put(make([]byte, 16)) // undersized: must be dropped
	b := p.Get()
	if len(b) != 256 {
		t.Fatalf("Get returned %d bytes after undersized Put, want 256", len(b))
	}
	p.Put(b[:10]) // resliced borrow of the right capacity: restored
	b2 := p.Get()
	if len(b2) != 256 {
		t.Fatalf("reused resliced buffer has %d bytes, want 256", len(b2))
	}
	if &b2[0] != &b[0] {
		t.Error("resliced borrow of full capacity was dropped instead of restored")
	}
}

// TestBufPoolConcurrent has eight scheduled borrowers share one pool,
// each holding its buffer across a scheduling point so the borrows
// overlap: a borrower tags its buffer, yields (every other borrower runs
// and tags its own), and must find its tag intact — a buffer handed to
// two holders at once would show the other's tag.
func TestBufPoolConcurrent(t *testing.T) {
	p := NewBufPool(1024)
	vclock.NewGroup(0).Run(8, func(w int, sw *vclock.Worker) {
		tag := byte(w + 1)
		for r := 0; r < 500; r++ {
			b := p.Get()
			for i := range b {
				b[i] = tag
			}
			sw.Clock().AdvanceNS(1)
			sw.Yield()
			for i := range b {
				if b[i] != tag {
					t.Errorf("worker %d: buffer shared with another borrower", tag)
					return
				}
			}
			p.Put(b)
		}
	})
	if n := len(p.free); n != 8 {
		t.Fatalf("pool holds %d buffers after 8 overlapping borrowers, want 8", n)
	}
}
