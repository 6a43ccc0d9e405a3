// Package bentoks is the Go analogue of BentoKS, the half of the Bento
// framework that wraps kernel services in safe abstractions (paper §4.5–
// §4.7).
//
// In the paper, safety is enforced by the Rust compiler: capability types
// cannot be forged, buffer heads release themselves on drop, and the
// borrow checker rejects use-after-release at compile time. Go has no
// borrow checker, so this package enforces the same ownership contract
// *dynamically*: every buffer acquisition and release is tracked, and
// use-after-release, double-release, and leaked references are detected
// and reported. The bug-injection suite (internal/buginject)
// demonstrates that this contract catches the memory-bug classes from the
// paper's Table 1 — the substitute for "93% of low-level bugs would be
// prevented by using Rust".
package bentoks

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"bento/internal/blockdev"
	"bento/internal/kernel"
	"bento/internal/trace"
)

// Violation is the error type for ownership-contract violations. In Rust
// these would be compile errors; here they surface at runtime and are
// counted by the Checker.
type Violation struct {
	Kind ViolationKind
	Msg  string
}

// ViolationKind classifies an ownership violation, mirroring the bug
// classes of the paper's Table 1 that Rust prevents.
type ViolationKind int

// Violation kinds.
const (
	// UseAfterRelease is a read or write of a buffer after brelse —
	// Table 1's "Use After Free".
	UseAfterRelease ViolationKind = iota
	// DoubleRelease is a second brelse of the same reference — "Double
	// Free".
	DoubleRelease
	// Leak is a buffer reference never released within its operation
	// scope — "Missing Free"/"Reference Count Leak".
	Leak
	// ForgedCapability is an attempt to fabricate a capability type
	// instead of receiving it from the framework.
	ForgedCapability
	// OutOfBounds is an access beyond a buffer's extent — "Out of
	// Bounds".
	OutOfBounds
	// Deadlock is a semaphore acquisition that can deadlock: taking a
	// semaphore already held, or closing a cycle in the recorded lock
	// order. Unlike the kinds above it is detected, not prevented: Rust's
	// types do not rule it out either (the paper's remaining 7%).
	Deadlock
)

func (k ViolationKind) String() string {
	switch k {
	case UseAfterRelease:
		return "use-after-release"
	case DoubleRelease:
		return "double-release"
	case Leak:
		return "leak"
	case ForgedCapability:
		return "forged-capability"
	case OutOfBounds:
		return "out-of-bounds"
	case Deadlock:
		return "deadlock"
	default:
		return "unknown"
	}
}

// Error implements error.
func (v *Violation) Error() string { return fmt.Sprintf("bentoks: %s: %s", v.Kind, v.Msg) }

// IsViolation reports whether err is an ownership violation and returns it.
func IsViolation(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// Checker records ownership-contract activity for one mounted file system.
// With Enabled set (the default), violations are detected and *contained*:
// the offending access returns an error instead of corrupting state, the
// way Rust turns these bugs into compile failures.
type Checker struct {
	Enabled bool

	outstanding map[int64]int64 // live buffer handle id -> block number
	nextID      int64
	violations  []Violation

	held  []*Semaphore // semaphores held now, in acquisition order
	nsems int          // semaphores created so far; names the next one
}

// NewChecker creates an enabled checker.
func NewChecker() *Checker {
	return &Checker{Enabled: true, outstanding: make(map[int64]int64)}
}

// acquire records a live borrow of blk and returns its handle id. The
// site is stored as the raw block number — rendering "block %d" is
// deferred to the (cold) leak reports, so the hot acquire path never
// formats a string.
func (c *Checker) acquire(blk int64) int64 {
	c.nextID++
	c.outstanding[c.nextID] = blk
	return c.nextID
}

func (c *Checker) release(id int64) {
	delete(c.outstanding, id)
}

func (c *Checker) record(kind ViolationKind, format string, args ...any) *Violation {
	v := Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)}
	c.violations = append(c.violations, v)
	return &v
}

// Violations returns everything recorded so far.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Outstanding lists acquire sites of buffers not yet released — the leak
// report. Deterministically sorted.
func (c *Checker) Outstanding() []string {
	out := make([]string, 0, len(c.outstanding))
	for _, blk := range c.outstanding {
		out = append(out, fmt.Sprintf("block %d", blk))
	}
	sort.Strings(out)
	return out
}

// CheckLeaks records a Leak violation for every outstanding buffer. The
// framework calls it at operation and unmount boundaries.
func (c *Checker) CheckLeaks() int {
	n := len(c.outstanding)
	sites := make([]string, 0, n)
	for _, blk := range c.outstanding {
		sites = append(sites, fmt.Sprintf("block %d", blk))
	}
	c.outstanding = make(map[int64]int64)
	sort.Strings(sites)
	for _, s := range sites {
		c.record(Leak, "buffer acquired at %s never released", s)
	}
	return n
}

// SuperBlock is the capability type granting block I/O on one mounted file
// system's device (paper §4.6). File systems cannot construct one; only
// the BentoFS framework (internal/core) mints it at mount time via
// NewSuperBlock. Holding a SuperBlock is proof of access to a valid
// kernel super_block.
type SuperBlock struct {
	bc      *kernel.BufferCache
	checker *Checker
	minted  bool // set only by NewSuperBlock
}

// NewSuperBlock mints the capability. It is exported because internal/core
// lives in a different package, but file systems must treat it as
// framework-private; forging a SuperBlock any other way yields a zero
// value that every method rejects with a ForgedCapability violation.
func NewSuperBlock(bc *kernel.BufferCache, checker *Checker) *SuperBlock {
	if checker == nil {
		checker = NewChecker()
	}
	return &SuperBlock{bc: bc, checker: checker, minted: true}
}

// Checker exposes the ownership checker (for tests and fault injection).
func (sb *SuperBlock) Checker() *Checker { return sb.checker }

// BlockSize reports the device block size.
func (sb *SuperBlock) BlockSize() int { return sb.bc.Device().BlockSize() }

// Blocks reports the device capacity in blocks.
func (sb *SuperBlock) Blocks() int { return sb.bc.Device().Blocks() }

// Device exposes raw device statistics (read-only use by benchmarks).
func (sb *SuperBlock) Device() *blockdev.Device { return sb.bc.Device() }

func (sb *SuperBlock) check() error {
	if sb == nil || !sb.minted {
		v := &Violation{Kind: ForgedCapability, Msg: "SuperBlock not minted by the framework"}
		if sb != nil && sb.checker != nil {
			sb.checker.violations = append(sb.checker.violations, *v)
		}
		return v
	}
	return nil
}

// BRead is sb_bread: it returns the buffer for blk with a tracked
// reference. The caller must Release exactly once; the checked wrapper
// turns the C API's footguns into reported violations.
func (sb *SuperBlock) BRead(t *kernel.Task, blk int) (Buffer, error) {
	return sb.bread(t, blk, true)
}

// BReadNoFill returns a zeroed buffer for a block about to be fully
// overwritten, skipping the device read.
func (sb *SuperBlock) BReadNoFill(t *kernel.Task, blk int) (Buffer, error) {
	return sb.bread(t, blk, false)
}

// BAdopt implements Disk by copying: the buffer cache writes its blocks
// in place, so it cannot keep data.
func (sb *SuperBlock) BAdopt(t *kernel.Task, blk int, data []byte) (Buffer, error) {
	if len(data) != sb.BlockSize() {
		return nil, blockdev.ErrBadSize
	}
	bh, err := sb.bread(t, blk, false)
	if err != nil {
		return nil, err
	}
	copy(bh.kb.Data(), data)
	return bh, nil
}

// BClone implements Disk by copying src's contents into the new buffer.
func (sb *SuperBlock) BClone(t *kernel.Task, blk int, src Buffer) (Buffer, error) {
	bh, err := sb.bread(t, blk, false)
	if err != nil {
		return nil, err
	}
	sdata, err := src.Data()
	if err != nil {
		_ = bh.Release()
		return nil, err
	}
	copy(bh.kb.Data(), sdata)
	return bh, nil
}

func (sb *SuperBlock) bread(t *kernel.Task, blk int, fill bool) (*BufferHead, error) {
	if err := sb.check(); err != nil {
		return nil, err
	}
	t.Charge(t.Model().WrapperCheck)
	var (
		kb  *kernel.BufferHead
		err error
	)
	if fill {
		kb, err = sb.bc.Get(t, blk)
	} else {
		kb, err = sb.bc.GetNoRead(t, blk)
	}
	if err != nil {
		return nil, err
	}
	bh := &BufferHead{kb: kb, sb: sb}
	if sb.checker.Enabled {
		bh.id = sb.checker.acquire(int64(blk))
	}
	return bh, nil
}

// ReadBlockRange copies block blk's bytes [off, off+len(dst)) into dst.
// It is the zero-allocation read accessor for metadata hot paths (inode
// loads, directory scans): the borrow is bracketed entirely inside the
// framework, so no BufferHead wrapper is minted and there is no handle a
// file system could leak, double-release, or use after release. The
// virtual-time cost is identical to BRead + copy + Release — one wrapper
// check and one buffer-cache lookup.
func (sb *SuperBlock) ReadBlockRange(t *kernel.Task, blk, off int, dst []byte) error {
	if err := sb.check(); err != nil {
		return err
	}
	t.Charge(t.Model().WrapperCheck)
	kb, err := sb.bc.Get(t, blk)
	if err != nil {
		return err
	}
	data := kb.Data()
	if off < 0 || off+len(dst) > len(data) {
		_ = kb.Release()
		return sb.checker.record(OutOfBounds, "range [%d:%d) of %d-byte buffer %d",
			off, off+len(dst), len(data), blk)
	}
	copy(dst, data[off:off+len(dst)])
	return kb.Release()
}

// BReadDirect is the data-path read: device to caller page with queue
// booking and cost accounting but no buffer-cache insertion. There is
// no reference to track — the caller owns buf — so the ownership
// checker sees only the capability check.
func (sb *SuperBlock) BReadDirect(t *kernel.Task, blk int, buf []byte) error {
	if err := sb.check(); err != nil {
		return err
	}
	t.Charge(t.Model().WrapperCheck)
	return sb.bc.ReadDirect(t, blk, buf)
}

// BBorrowDirect is BReadDirect by reference: the same checks, costs and
// device command, returning the device's own buffer as a read-only view
// (nil: the block reads as zeros) instead of filling the caller's. There
// is no reference to track here either — a view is valid for as long as
// the caller holds it and is never given back.
func (sb *SuperBlock) BBorrowDirect(t *kernel.Task, blk int) ([]byte, error) {
	if err := sb.check(); err != nil {
		return nil, err
	}
	t.Charge(t.Model().WrapperCheck)
	return sb.bc.BorrowDirect(t, blk)
}

// BWriteDirect is the data-path write: a cache-bypass submit returning
// the completion time for batched waiting.
func (sb *SuperBlock) BWriteDirect(t *kernel.Task, blk int, buf []byte) (int64, error) {
	if err := sb.check(); err != nil {
		return 0, err
	}
	t.Charge(t.Model().WrapperCheck)
	return sb.bc.WriteDirect(t, blk, buf)
}

// BWriteOwned is BWriteDirect by reference: ownership of buf moves to the
// device, the Go rendering of handing a page to the block layer instead
// of copying it. The caller must not write buf again, whatever the call
// returns.
func (sb *SuperBlock) BWriteOwned(t *kernel.Task, blk int, buf []byte) (int64, error) {
	if err := sb.check(); err != nil {
		return 0, err
	}
	t.Charge(t.Model().WrapperCheck)
	return sb.bc.WriteDirectOwned(t, blk, buf)
}

// DropCleanBuffers evicts clean, unreferenced buffers (the drop_caches
// hook the BentoFS shim forwards from the kernel).
func (sb *SuperBlock) DropCleanBuffers() int { return sb.bc.DropClean() }

// BufferCache exposes the underlying cache for diagnostics and tests
// (residency assertions); file systems must not use it for I/O.
func (sb *SuperBlock) BufferCache() *kernel.BufferCache { return sb.bc }

// WithBuffer brackets fn with BRead/Release — the closest Go can come to
// Rust's drop-based buffer management. Using it makes leaks impossible.
func (sb *SuperBlock) WithBuffer(t *kernel.Task, blk int, fn func(Buffer) error) error {
	bh, err := sb.BRead(t, blk)
	if err != nil {
		return err
	}
	defer bh.Release()
	return fn(bh)
}

// SyncDirtyBuffers writes all dirty buffers to the device as one batch.
func (sb *SuperBlock) SyncDirtyBuffers(t *kernel.Task) error {
	if err := sb.check(); err != nil {
		return err
	}
	return sb.bc.SyncDirty(t)
}

// Flush issues a device FLUSH (write barrier + durability).
func (sb *SuperBlock) Flush(t *kernel.Task) error {
	if err := sb.check(); err != nil {
		return err
	}
	start := t.Clk.NowNS()
	if err := sb.bc.Device().Flush(t.Clk); err != nil {
		return err
	}
	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatDevice, "flush", start, t.Clk.NowNS())
	}
	return nil
}

// BufferCacheStats exposes hit/miss counters.
func (sb *SuperBlock) BufferCacheStats() kernel.BufferCacheStats { return sb.bc.Stats() }

// Ensure the capability satisfies the service interface.
var _ Disk = (*SuperBlock)(nil)

// BufferHead is the safe wrapper around a kernel buffer (paper §4.7). Its
// Data accessor returns an error after Release — the runtime rendering of
// Rust rejecting use-after-free — and Release is idempotent only in the
// sense that the second call is *reported*, not silently absorbed.
type BufferHead struct {
	kb *kernel.BufferHead
	sb *SuperBlock
	id int64

	released bool
}

// BlockNo reports the block this buffer caches.
func (b *BufferHead) BlockNo() int { return b.kb.BlockNo() }

// Data returns the buffer contents, or a violation if the reference was
// already released.
func (b *BufferHead) Data() ([]byte, error) {
	if b.released {
		return nil, b.sb.checker.record(UseAfterRelease, "Data() on released buffer %d", b.kb.BlockNo())
	}
	return b.kb.Data(), nil
}

// Slice returns data[off:off+n] with bounds checking, turning what C code
// would make a wild read into a reported OutOfBounds violation.
func (b *BufferHead) Slice(off, n int) ([]byte, error) {
	data, err := b.Data()
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > len(data) {
		return nil, b.sb.checker.record(OutOfBounds, "slice [%d:%d) of %d-byte buffer %d", off, off+n, len(data), b.kb.BlockNo())
	}
	return data[off : off+n], nil
}

// MarkDirty flags the buffer modified; fails after release.
func (b *BufferHead) MarkDirty() error {
	if b.released {
		return b.sb.checker.record(UseAfterRelease, "MarkDirty() on released buffer %d", b.kb.BlockNo())
	}
	b.kb.MarkDirty()
	return nil
}

// SubmitWrite queues the buffer to the device, returning the completion
// time for batched waiting.
func (b *BufferHead) SubmitWrite(t *kernel.Task) (int64, error) {
	if b.released {
		return 0, b.sb.checker.record(UseAfterRelease, "SubmitWrite() on released buffer %d", b.kb.BlockNo())
	}
	return b.kb.SubmitWrite(t)
}

// WriteSync writes the buffer and waits for completion.
func (b *BufferHead) WriteSync(t *kernel.Task) error {
	done, err := b.SubmitWrite(t)
	if err != nil {
		return err
	}
	t.WaitIO("bwrite", done)
	return nil
}

// Release is brelse. The first call releases the kernel reference; any
// further call is recorded as a DoubleRelease violation and returns it.
func (b *BufferHead) Release() error {
	if b.released {
		return b.sb.checker.record(DoubleRelease, "buffer %d", b.kb.BlockNo())
	}
	b.released = true
	if b.sb.checker.Enabled {
		b.sb.checker.release(b.id)
	}
	return b.kb.Release()
}

// Semaphore is the safe wrapper over the kernel semaphore that the paper's
// Rust file systems use for inode locks. Unlocking an unheld semaphore is
// reported instead of corrupting scheduler state.
//
// It never blocks. Inside a cell one task runs at a time and each slice
// runs to completion, so a semaphore is taken and dropped within one
// slice (which makes the checker's held set the running task's), and
// waiting for one held elsewhere could never end. Acquire checks the
// lock order instead, in the style of Linux lockdep: holding A while
// acquiring B records the edge A→B, and re-taking a held semaphore or
// closing a cycle of edges is a Deadlock violation naming both
// semaphores — reported on the first run that takes both orders, not
// only on the interleaving that hangs.
type Semaphore struct {
	held  bool
	c     *Checker
	id    int          // creation order within c; names it in reports
	after []*Semaphore // order edges s→x, in first-recorded order
}

// NewSemaphore creates a semaphore tied to a checker (nil = a private
// one, so its order is checked against no other semaphore's).
func NewSemaphore(c *Checker) *Semaphore {
	if c == nil {
		c = NewChecker()
	}
	c.nsems++
	return &Semaphore{c: c, id: c.nsems}
}

func (s *Semaphore) name() string { return fmt.Sprintf("semaphore %d", s.id) }

// Acquire takes the semaphore without waiting. It returns a Deadlock
// violation when the acquisition can deadlock; the semaphore is held
// afterwards either way, and one Release drops it.
func (s *Semaphore) Acquire() error {
	c := s.c
	if s.held {
		return c.record(Deadlock, "%s acquired while already held: nothing can run to release it", s.name())
	}
	s.held = true
	var err error
	for _, h := range c.held {
		if path := s.orderPath(h, map[*Semaphore]bool{}); path != nil && err == nil {
			cycle := h.name()
			for _, x := range path {
				cycle += " → " + x.name()
			}
			err = c.record(Deadlock, "acquiring %s while holding %s closes the lock-order cycle %s",
				s.name(), h.name(), cycle)
		}
		if !slices.Contains(h.after, s) {
			h.after = append(h.after, s)
		}
	}
	c.held = append(c.held, s)
	return err
}

// orderPath returns a recorded order path from s to t, both included, or
// nil when there is none. The walk is depth-first over edges in the order
// they were first recorded, so the reported cycle is a function of the
// acquisition history alone.
func (s *Semaphore) orderPath(t *Semaphore, seen map[*Semaphore]bool) []*Semaphore {
	if s == t {
		return []*Semaphore{t}
	}
	seen[s] = true
	for _, x := range s.after {
		if seen[x] {
			continue
		}
		if p := x.orderPath(t, seen); p != nil {
			return append([]*Semaphore{s}, p...)
		}
	}
	return nil
}

// Release drops the semaphore, reporting a violation if it is not held.
func (s *Semaphore) Release() error {
	if !s.held {
		return s.c.record(DoubleRelease, "%s released while not held", s.name())
	}
	s.held = false
	i := slices.Index(s.c.held, s) // held, so it is there
	s.c.held = slices.Delete(s.c.held, i, i+1)
	return nil
}
