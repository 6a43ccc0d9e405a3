package lru

// BufPool is a fixed-size-class byte-buffer free list. The file systems
// use one per block size for the scratch buffers their hot paths used to
// allocate per call (directory scan blocks, dirent records, bounce
// buffers): steady-state operation then allocates nothing, which is the
// repo's allocation-budget contract (see ALLOC_budget.json).
//
// Contents policy: Get returns a buffer with UNSPECIFIED contents — it
// may hold bytes from a previous borrower, including file data. Callers
// that need zeros must clear explicitly. This keeps the common case
// (buffer fully overwritten before use) free, and the policy is pinned
// by tests in bufpool_test.go.
//
// A BufPool belongs to one file-system instance and takes no lock (one
// runner at a time per cell). It holds buffers forever (no GC pressure
// release); pools are sized by peak borrow depth — the buffers one
// operation holds at once, a handful — not a cache.
type BufPool struct {
	size int
	free [][]byte
}

// NewBufPool creates a pool of size-byte buffers.
func NewBufPool(size int) *BufPool {
	if size <= 0 {
		panic("lru: BufPool size must be positive")
	}
	return &BufPool{size: size}
}

// Size reports the pool's buffer size.
func (p *BufPool) Size() int { return p.size }

// Get returns a size-byte buffer with unspecified contents.
func (p *BufPool) Get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, p.size)
}

// Put returns a buffer to the pool. Buffers of the wrong size class are
// dropped (a resliced borrow handed back by mistake must not poison the
// pool). The caller must not retain any reference to b after Put — the
// next Get hands it to another borrower.
func (p *BufPool) Put(b []byte) {
	if cap(b) < p.size {
		return
	}
	p.free = append(p.free, b[:p.size])
}
