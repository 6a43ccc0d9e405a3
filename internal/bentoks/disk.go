package bentoks

import "bento/internal/kernel"

// Buffer is the borrowed-block abstraction file systems program against.
// In the kernel it is the checked BufferHead wrapper; at user level
// (§4.9) it is a userspace buffer backed by O_DIRECT file I/O. File
// systems written against this interface run unmodified in both worlds —
// the paper's debugging/code-reuse architecture.
type Buffer interface {
	// BlockNo reports the cached block number.
	BlockNo() int
	// Data exposes the block contents for the duration of the borrow.
	Data() ([]byte, error)
	// Slice returns a bounds-checked sub-range of the contents.
	Slice(off, n int) ([]byte, error)
	// MarkDirty records a modification.
	MarkDirty() error
	// SubmitWrite queues the block to stable storage, returning the
	// completion time for batched waiting.
	SubmitWrite(t *kernel.Task) (int64, error)
	// WriteSync writes the block and waits.
	WriteSync(t *kernel.Task) error
	// Release returns the borrow (brelse).
	Release() error
}

// Disk is the storage service a Bento file system receives at Init: the
// kernel-side SuperBlock capability, or the userspace O_DIRECT
// equivalent when the same file system runs under FUSE.
//
// Disk is deliberately backend-agnostic: both implementations bottom
// out in a blockdev.Device, whose storage tier is itself pluggable (the
// local NVMe model or internal/netstore's object store — see
// blockdev.Backend). A file system written against Disk therefore runs
// unmodified over any backend; only the latencies its buffers report
// change.
type Disk interface {
	// BlockSize reports the device block size.
	BlockSize() int
	// Blocks reports the device capacity in blocks.
	Blocks() int
	// BRead returns the buffer for blk (sb_bread).
	BRead(t *kernel.Task, blk int) (Buffer, error)
	// BReadNoFill returns a zeroed buffer for a block about to be fully
	// overwritten.
	BReadNoFill(t *kernel.Task, blk int) (Buffer, error)
	// BAdopt is BReadNoFill with the block then wholly overwritten by data
	// (one block), at exactly BReadNoFill's cost. The caller gives data
	// up: it never writes it again, whatever the call returns, so a disk
	// may keep data itself as the block's contents (and then never
	// writes it either). The kernel SuperBlock copies it.
	BAdopt(t *kernel.Task, blk int, data []byte) (Buffer, error)
	// BClone is BReadNoFill with the block then holding a copy of src's
	// contents — the journal's copy of a home block into its log slot —
	// at exactly BReadNoFill's cost. src is read without being made
	// writable, and a disk that knows src's contents are immutable shares
	// them instead of copying. The kernel SuperBlock copies.
	BClone(t *kernel.Task, blk int, src Buffer) (Buffer, error)
	// ReadBlockRange copies block blk's bytes [off, off+len(dst)) into
	// dst — BRead + copy + Release fused into one framework-internal
	// borrow. Metadata read paths use it so a cache hit allocates no
	// wrapper; the borrow cannot be leaked or used after release because
	// it never escapes the call.
	ReadBlockRange(t *kernel.Task, blk, off int, dst []byte) error
	// BReadDirect reads blk straight into buf (one block) without
	// populating any block cache — the single-copy data path. File
	// systems use it for file contents so data lives only in the page
	// cache above; metadata keeps going through BRead.
	BReadDirect(t *kernel.Task, blk int, buf []byte) error
	// BBorrowDirect is BReadDirect without the copy: it returns the
	// block as a read-only view that stays valid and unchanged for as
	// long as the caller holds it (nothing is given back), at exactly
	// BReadDirect's virtual-time cost. A nil view with a nil error means
	// the block reads as zeros.
	BBorrowDirect(t *kernel.Task, blk int) (view []byte, err error)
	// BWriteDirect submits a write of buf to blk without populating any
	// block cache and returns the command's completion time; callers
	// batch submits and wait once, like the buffered SubmitWrite path.
	// At user level the write is synchronous (O_DIRECT pwrite) and the
	// returned completion is simply "now".
	BWriteDirect(t *kernel.Task, blk int, buf []byte) (completion int64, err error)
	// BWriteOwned is BWriteDirect without the copy: the disk may keep
	// buf (one block) as the block's contents, so the caller gives it up
	// for writing — it must never write buf again, whatever the call
	// returns — at exactly BWriteDirect's virtual-time cost.
	BWriteOwned(t *kernel.Task, blk int, buf []byte) (completion int64, err error)
	// WithBuffer brackets fn with BRead/Release.
	WithBuffer(t *kernel.Task, blk int, fn func(Buffer) error) error
	// SyncDirtyBuffers writes all dirty cached buffers.
	SyncDirtyBuffers(t *kernel.Task) error
	// Flush makes completed writes durable (device FLUSH; at user level,
	// fsync of the disk file).
	Flush(t *kernel.Task) error
}

// BlockLender is the optional by-reference read of a cached block, which
// only a disk whose cached blocks are never written in place can offer:
// the userspace disk under FUSE has it, the kernel SuperBlock — whose
// buffer cache mutates blocks under the journal — does not. A file
// system asks for it once, at Init.
type BlockLender interface {
	// BReadView is ReadBlockRange of the whole block by reference: the
	// same cost, returning a read-only view of the block's contents that
	// stays valid and unchanged for as long as the caller holds it.
	BReadView(t *kernel.Task, blk int) ([]byte, error)
}
