// Package core is the Go analogue of BentoFS: the thin layer the paper
// interposes between the Linux VFS and file systems written against the
// safe file-operations API (paper §4.3–§4.4).
//
// The file-operations API below follows the FUSE low-level API, augmented
// with a bentoks.SuperBlock capability for block I/O — exactly the
// paper's design. BentoFS implements the simulated kernel's VFS interface
// once, translating every VFS call into file-operations calls under the
// "ownership model": no ownership of kernel data structures ever crosses
// the boundary; the file system only receives borrowed buffers and
// capability types it cannot forge.
//
// BentoFS also implements the batched ->writepages write-back path it
// inherits from the FUSE kernel module, which the paper credits for the
// Bento xv6 beating the C baseline on large sequential writes, and the
// §4.8 online-upgrade protocol, which runs in three phases. The pause is
// virtual time: Upgrade is one whole operation of the task the scheduler
// admitted, so the host needs no quiesce lock.
//
//   - quiesce: new operations are held at the shim (they stall in
//     virtual time until resume); the old instance makes everything
//     that must survive durable
//     (PrepareTransfer, or a full SyncFS+Destroy when the instance has no
//     transfer support) and serializes its in-memory state.
//   - transfer: the replacement instance initializes against the SAME
//     SuperBlock capability (the buffer cache and its dirty state are
//     kernel property and survive the swap), then restores the
//     serialized state. The transfer is charged one memory copy of the
//     state blob in virtual time.
//   - resume: the operations vector swaps, the generation counter bumps,
//     and held operations proceed against the new code.
//
// Invariants the protocol maintains: open files, the page cache, and the
// dcache above the shim survive untouched (applications never observe
// the swap beyond a pause); no operation ever runs partly on the old and
// partly on the new instance; and an operation arriving mid-upgrade
// waits for resume — in virtual time too, so the paper's availability
// story (pause length, who pays it) is measurable and deterministic.
// See docs/upgrade-and-crash.md for the operator-facing rendering.
package core

import (
	"fmt"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
)

// FileSystem is the Bento file-operations API. File systems implement it
// in "safe" style: all kernel access flows through the SuperBlock
// capability passed to Init, all buffers are borrowed via bentoks
// wrappers, and nothing the kernel owns is retained across calls.
type FileSystem interface {
	// BentoName identifies the implementation (module name).
	BentoName() string
	// Init mounts the file system. sb is the capability granting block
	// I/O on the backing device; it is the only route to the hardware.
	Init(t *kernel.Task, disk bentoks.Disk) error
	// Destroy unmounts, flushing all state.
	Destroy(t *kernel.Task) error
	// StatFS reports usage.
	StatFS(t *kernel.Task) (fsapi.FSStat, error)
	// Lookup resolves name under parent.
	Lookup(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error)
	// GetAttr returns attributes for ino.
	GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error)
	// SetAttr truncates/extends ino to size (the only attribute the
	// simulation models).
	SetAttr(t *kernel.Task, ino fsapi.Ino, size int64) error
	// Create makes a regular file.
	Create(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error)
	// Mkdir makes a directory.
	Mkdir(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error)
	// Unlink removes a file link.
	Unlink(t *kernel.Task, parent fsapi.Ino, name string) error
	// Rmdir removes an empty directory.
	Rmdir(t *kernel.Task, parent fsapi.Ino, name string) error
	// Rename moves oldName in oldParent to newName in newParent.
	Rename(t *kernel.Task, oldParent fsapi.Ino, oldName string, newParent fsapi.Ino, newName string) error
	// Link adds a hard link to ino as parent/name.
	Link(t *kernel.Task, ino fsapi.Ino, parent fsapi.Ino, name string) (fsapi.Stat, error)
	// Open acquires a reference to ino for an open file description.
	Open(t *kernel.Task, ino fsapi.Ino) error
	// Release drops the open reference.
	Release(t *kernel.Task, ino fsapi.Ino) error
	// Read fills buf from ino at off, returning bytes read (short reads
	// at EOF).
	Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error)
	// Write stores data to ino at off, extending the file as needed.
	Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error)
	// Fsync makes ino durable.
	Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error
	// ReadDir lists a directory.
	ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error)
	// SyncFS makes the whole file system durable.
	SyncFS(t *kernel.Task) error
}

// PageLender is the optional zero-copy read of the file-operations API, the
// Bento rendering of lending a BufferHead's data instead of copying it:
// BentoFS serves kernel.PageLender through it. CanLendPage reports whether
// page pg of ino can be lent, consuming no virtual time and changing no
// state — the shim has to know before it charges its dispatch. LendPage,
// called only after a yes and within the same operation, then returns the
// page as a fsapi.PageSize read-only view that stays valid and unchanged
// for as long as the caller holds it, having consumed exactly what Read of
// that page would have.
type PageLender interface {
	CanLendPage(ino fsapi.Ino, pg int64) bool
	LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error)
}

// PageWriter is the optional page-vector write: Write with its data as the
// kernel's write-back run — pages are consecutive fsapi.PageSize buffers
// whose first total bytes go to ino at the page-aligned off — instead of
// one flat buffer. The caller has given the page buffers up (it will never
// write them again, whatever the call returns), so the file system may
// hand whole blocks of them to the device instead of copying; in virtual
// time the call is Write of the same bytes. The pages slice itself stays
// the caller's.
type PageWriter interface {
	WritePages(t *kernel.Task, ino fsapi.Ino, off int64, pages [][]byte, total int64) (int, error)
}

// Upgradable is the §4.8 online-upgrade contract. PrepareTransfer shuts
// the instance down (flushing what must be durable) and serializes the
// in-memory state worth keeping; RestoreTransfer rebuilds that state in
// the replacement instance.
type Upgradable interface {
	PrepareTransfer(t *kernel.Task) ([]byte, error)
	RestoreTransfer(t *kernel.Task, state []byte) error
}

// fsType adapts a Bento file-system factory to the kernel's
// register_filesystem interface.
type fsType struct {
	name    string
	factory func() FileSystem
}

// Name implements kernel.FileSystemType.
func (ft fsType) Name() string { return ft.name }

// Mount implements kernel.FileSystemType: it mints the SuperBlock
// capability over the device, initializes the Bento file system, and
// interposes the BentoFS shim between it and the VFS.
func (ft fsType) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	fs := ft.factory()
	bc := kernel.NewBufferCache(dev, t.Model(), 0)
	sb := bentoks.NewSuperBlock(bc, bentoks.NewChecker())
	if err := fs.Init(t, sb); err != nil {
		return nil, fmt.Errorf("bentofs: init %q: %w", ft.name, err)
	}
	return &BentoFS{name: ft.name, fs: fs, sb: sb}, nil
}

// Register installs a Bento file-system module into the kernel under
// name. Like inserting a .ko built from safe Rust: afterwards the type is
// mountable with kernel.Mount.
func Register(k *kernel.Kernel, name string, factory func() FileSystem) error {
	return k.Register(fsType{name: name, factory: factory})
}

// BentoFS is the interposition layer instance for one mount. It
// implements kernel.FileSystem (calls *into* the file system, paper
// Figure 1 ①) while the SuperBlock it minted carries calls *out of* the
// file system into kernel services (Figure 1 ②).
//
// The §4.8 quiescence is modelled in virtual time: Upgrade runs as one
// whole operation of the task the scheduler admitted, so on the host no
// other operation is in flight, and an operation whose clock is still
// behind upgradeEnd pays the rest of the pause in enter().
type BentoFS struct {
	name string
	sb   *bentoks.SuperBlock

	fs FileSystem

	generation int64 // bumped per upgrade
	ops        int64 // operations served (all generations)

	// upgradeEnd is the virtual timestamp at which the most recent
	// upgrade resumed. An operation whose task clock is still behind it
	// arrived mid-upgrade in virtual time and pays the remaining pause in
	// enter() — one load on the hot path, no allocation. The
	// vclock scheduler admits workers in (virtual time, id) order, so by
	// the time the operator's Upgrade call runs at virtual time T every
	// parked worker's next operation carries a timestamp >= T; the stall
	// is therefore a pure function of the virtual timeline and
	// byte-reproducible across hosts and -parallel levels.
	upgradeEnd  int64
	stalledOps  int64 // ops that arrived mid-upgrade and waited
	lastUpgrade UpgradeStats

	// wbScratch is WriteRun's flattening buffer, for a file system that
	// is not a PageWriter.
	wbScratch []byte
}

// UpgradeStats breaks down the most recent Upgrade call in virtual
// nanoseconds: the total pause and its quiesce /
// transfer / resume phases, plus the size of the serialized state moved
// between instances. StalledOps counts operations that arrived while the
// upgrade was in progress and waited for resume.
type UpgradeStats struct {
	Generation    int64 // generation the upgrade produced
	StartNS       int64 // virtual time the quiesce began
	EndNS         int64 // virtual time operations resumed
	PauseNS       int64 // EndNS - StartNS
	QuiesceNS     int64 // drain + PrepareTransfer (or SyncFS+Destroy)
	TransferNS    int64 // replacement Init + state copy + RestoreTransfer
	ResumeNS      int64 // ops-vector swap + publish
	TransferBytes int64 // len(state) moved between instances
	StalledOps    int64 // operations that paid part of the pause
}

var (
	_ kernel.FileSystem        = (*BentoFS)(nil)
	_ kernel.BatchWriter       = (*BentoFS)(nil)
	_ kernel.BlockCacheDropper = (*BentoFS)(nil)
	_ kernel.PageLender        = (*BentoFS)(nil)
)

// enter charges the translation cost and applies the upgrade pause;
// every operation starts with it.
func (b *BentoFS) enter(t *kernel.Task) {
	t.Charge(t.Model().BentoDispatch)
	b.ops++
	// Mid-upgrade arrival: pay the rest of the pause in virtual time
	// (mirrors the journal's begin-stall). The common case is one load
	// and a not-taken branch.
	if end := b.upgradeEnd; end > t.Clk.NowNS() {
		b.stalledOps++
		if r := t.Rec(); r != nil {
			r.Span(t.Name, trace.CatUpgrade, "resume-wait", t.Clk.NowNS(), end)
			r.Add(trace.CtrUpgradeStalls, 1)
		}
		t.Clk.AdvanceTo(end)
	}
}

// Generation reports how many upgrades this mount has seen.
func (b *BentoFS) Generation() int64 { return b.generation }

// Ops reports operations served across all generations.
func (b *BentoFS) Ops() int64 { return b.ops }

// SuperBlock exposes the capability (tests, fsck, fault injection).
func (b *BentoFS) SuperBlock() *bentoks.SuperBlock { return b.sb }

// Inner returns the current file-system instance.
func (b *BentoFS) Inner() FileSystem { return b.fs }

// LastUpgrade returns the virtual-time breakdown of the most recent
// Upgrade call (zero value if none has run). StalledOps is live:
// operations whose clocks lag the resume timestamp may still arrive and
// pay their stall after Upgrade returns.
func (b *BentoFS) LastUpgrade() UpgradeStats {
	st := b.lastUpgrade
	st.StalledOps = b.stalledOps
	return st
}

// Upgrade swaps in a replacement file-system implementation while the
// mount stays live (paper §4.8): the old instance serializes its
// in-memory state, the new instance restores it, and subsequent
// operations run on the new code. Open files and the page cache above
// the shim survive untouched, so applications never notice beyond a
// pause. Call it as one operation of an admitted task: no file-system
// operation is in flight on the host then, which is the quiescence.
//
// The quiesce / transfer / resume phases are traced as trace.CatUpgrade
// spans on the calling task's track, and their virtual-time breakdown is
// retained for LastUpgrade. Operations that arrive while the upgrade is
// in progress stall in enter() until the resume timestamp — that stall
// is the per-op latency spike the availability experiment measures.
func (b *BentoFS) Upgrade(t *kernel.Task, next FileSystem) error {
	start := t.Clk.NowNS()
	old := b.fs
	var state []byte
	if up, ok := old.(Upgradable); ok {
		s, err := up.PrepareTransfer(t)
		if err != nil {
			return fmt.Errorf("bentofs: prepare transfer from %q: %w", old.BentoName(), err)
		}
		state = s
	} else {
		// No transfer support: fall back to a full flush so the new
		// instance can rebuild from disk.
		if err := old.SyncFS(t); err != nil {
			return fmt.Errorf("bentofs: quiesce sync of %q: %w", old.BentoName(), err)
		}
		if err := old.Destroy(t); err != nil {
			return fmt.Errorf("bentofs: destroy %q: %w", old.BentoName(), err)
		}
	}
	quiesceEnd := t.Clk.NowNS()

	if err := next.Init(t, b.sb); err != nil {
		return fmt.Errorf("bentofs: init replacement %q: %w", next.BentoName(), err)
	}
	if state != nil {
		up, ok := next.(Upgradable)
		if !ok {
			return fmt.Errorf("bentofs: replacement %q cannot restore transferred state: %w",
				next.BentoName(), fsapi.ErrNotSupported)
		}
		// Transferring state costs one copy of it.
		t.Charge(t.Model().Copy(len(state)))
		if err := up.RestoreTransfer(t, state); err != nil {
			return fmt.Errorf("bentofs: restore transfer into %q: %w", next.BentoName(), err)
		}
	}
	transferEnd := t.Clk.NowNS()

	// Publishing the swap costs one dispatch: the ops-vector pointer
	// swap plus the barrier that makes it visible.
	t.Charge(t.Model().BentoDispatch)
	b.fs = next
	b.generation++
	end := t.Clk.NowNS()

	b.stalledOps = 0 // stalls are per-upgrade
	b.lastUpgrade = UpgradeStats{
		Generation:    b.generation,
		StartNS:       start,
		EndNS:         end,
		PauseNS:       end - start,
		QuiesceNS:     quiesceEnd - start,
		TransferNS:    transferEnd - quiesceEnd,
		ResumeNS:      end - transferEnd,
		TransferBytes: int64(len(state)),
	}
	b.upgradeEnd = end

	if r := t.Rec(); r != nil {
		r.Span(t.Name, trace.CatUpgrade, "quiesce", start, quiesceEnd)
		r.Span(t.Name, trace.CatUpgrade, "transfer", quiesceEnd, transferEnd)
		r.Span(t.Name, trace.CatUpgrade, "resume", transferEnd, end)
		r.Add(trace.CtrUpgrades, 1)
	}
	return nil
}

// --- kernel.FileSystem: calls into the file system (Figure 1 ①) ---

// Root implements kernel.FileSystem. The file-operations API fixes the
// root at fsapi.RootIno, as FUSE fixes FUSE_ROOT_ID.
func (b *BentoFS) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (b *BentoFS) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	b.enter(t)
	return b.fs.Lookup(t, dir, name)
}

// GetAttr implements kernel.FileSystem.
func (b *BentoFS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	b.enter(t)
	return b.fs.GetAttr(t, ino)
}

// SetSize implements kernel.FileSystem.
func (b *BentoFS) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	b.enter(t)
	return b.fs.SetAttr(t, ino, size)
}

// Create implements kernel.FileSystem.
func (b *BentoFS) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	b.enter(t)
	return b.fs.Create(t, dir, name)
}

// Mkdir implements kernel.FileSystem.
func (b *BentoFS) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	b.enter(t)
	return b.fs.Mkdir(t, dir, name)
}

// Unlink implements kernel.FileSystem.
func (b *BentoFS) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	b.enter(t)
	return b.fs.Unlink(t, dir, name)
}

// Rmdir implements kernel.FileSystem.
func (b *BentoFS) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	b.enter(t)
	return b.fs.Rmdir(t, dir, name)
}

// Rename implements kernel.FileSystem.
func (b *BentoFS) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	b.enter(t)
	return b.fs.Rename(t, odir, oname, ndir, nname)
}

// Link implements kernel.FileSystem.
func (b *BentoFS) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	b.enter(t)
	return b.fs.Link(t, ino, dir, name)
}

// ReadDir implements kernel.FileSystem.
func (b *BentoFS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	b.enter(t)
	return b.fs.ReadDir(t, dir)
}

// Open implements kernel.FileSystem.
func (b *BentoFS) Open(t *kernel.Task, ino fsapi.Ino) error {
	b.enter(t)
	return b.fs.Open(t, ino)
}

// Release implements kernel.FileSystem.
func (b *BentoFS) Release(t *kernel.Task, ino fsapi.Ino) error {
	b.enter(t)
	return b.fs.Release(t, ino)
}

// ReadPage implements kernel.FileSystem by translating the page-cache
// fill into a file-operations Read.
func (b *BentoFS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	b.enter(t)
	n, err := b.fs.Read(t, ino, pg*fsapi.PageSize, buf)
	if err != nil {
		return err
	}
	clear(buf[n:]) // zero-fill the tail beyond EOF
	return nil
}

// LendPage implements kernel.PageLender when the file system is a
// PageLender and says the page can be lent: ReadPage with the page passed
// by reference. The question is asked before enter, because a no must
// cost nothing — the kernel then calls ReadPage, which enters.
func (b *BentoFS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	pl, ok := b.fs.(PageLender)
	if !ok || !pl.CanLendPage(ino, pg) {
		return nil, nil
	}
	b.enter(t)
	return pl.LendPage(t, ino, pg)
}

// WritePage implements kernel.FileSystem (single-page write-back).
func (b *BentoFS) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	return b.WritePages(t, ino, pg, [][]byte{buf}, newSize)
}

// WritePages implements kernel.BatchWriter: the batched ->writepages
// write-back BentoFS inherits from the FUSE kernel module. The contiguous
// run of dirty pages becomes a single file-operations write (WriteRun),
// so the file system below wraps the whole run in one transaction.
func (b *BentoFS) WritePages(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	b.enter(t)
	off := pg * fsapi.PageSize
	total := int64(len(pages)) * fsapi.PageSize
	if off >= newSize {
		return nil // entire run beyond EOF (racing truncate); nothing to do
	}
	if off+total > newSize {
		total = newSize - off
	}
	n, err := WriteRun(t, b.fs, ino, off, pages, total, &b.wbScratch)
	if err != nil {
		return err
	}
	if int64(n) != total {
		return fmt.Errorf("bentofs: short writeback %d of %d: %w", n, total, fsapi.ErrIO)
	}
	return nil
}

// WriteRun writes the first total bytes of a write-back run — consecutive
// page buffers the caller has given up — to ino at the page-aligned off,
// and reports how many fs wrote. When fs is a PageWriter and every page is
// whole it gets the pages themselves, and nothing is copied; otherwise it
// gets Write of the run flattened into *scratch (zeros where the pages run
// out before total), a buffer the caller keeps so that its steady-state
// write-back allocates nothing. BentoFS and the FUSE daemon both write
// back this way.
func WriteRun(t *kernel.Task, fs FileSystem, ino fsapi.Ino, off int64, pages [][]byte, total int64, scratch *[]byte) (int, error) {
	if pw, ok := fs.(PageWriter); ok && wholePages(pages) {
		return pw.WritePages(t, ino, off, pages, total)
	}
	if int64(cap(*scratch)) < total {
		*scratch = make([]byte, total)
	}
	data := (*scratch)[:total]
	rest := data
	for _, p := range pages {
		if len(rest) == 0 {
			break
		}
		rest = rest[copy(rest, p):]
	}
	clear(rest)
	return fs.Write(t, ino, off, data)
}

// wholePages reports whether every buffer of pages is one whole page.
func wholePages(pages [][]byte) bool {
	for _, p := range pages {
		if len(p) != fsapi.PageSize {
			return false
		}
	}
	return true
}

// DropCleanBlocks implements kernel.BlockCacheDropper: drop_caches
// reaches the in-kernel buffer cache behind the capability, but never a
// userspace daemon's memory (the FUSE transport does not forward it).
func (b *BentoFS) DropCleanBlocks() int { return b.sb.DropCleanBuffers() }

// Fsync implements kernel.FileSystem.
func (b *BentoFS) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	b.enter(t)
	return b.fs.Fsync(t, ino, dataOnly)
}

// Sync implements kernel.FileSystem.
func (b *BentoFS) Sync(t *kernel.Task) error {
	b.enter(t)
	return b.fs.SyncFS(t)
}

// StatFS implements kernel.FileSystem.
func (b *BentoFS) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	b.enter(t)
	return b.fs.StatFS(t)
}

// Unmount implements kernel.FileSystem: destroy the module instance and
// report any buffer leaks the ownership checker caught.
func (b *BentoFS) Unmount(t *kernel.Task) error {
	b.enter(t)
	if err := b.fs.Destroy(t); err != nil {
		return err
	}
	if n := b.sb.Checker().CheckLeaks(); n > 0 {
		return fmt.Errorf("bentofs: %d buffer(s) leaked by %q: %w", n, b.fs.BentoName(), fsapi.ErrInvalid)
	}
	return nil
}
