// Package kernel simulates the slice of the Linux kernel the paper's
// evaluation exercises: tasks making system calls, the VFS object layer,
// the page cache with write-back, and the buffer cache over a simulated
// NVMe device. File systems register with the kernel and are mounted
// exactly as Linux modules are (register_filesystem + mount), and every
// operation charges virtual time per the cost model, so the benchmarks
// measure modeled kernel-path costs rather than host noise.
//
// Concurrency model: a kernel, its mounts and everything below them
// belong to one benchmark cell, and a cell runs one task at a time — the
// vclock scheduler admits the worker with the minimal (virtual time,
// worker id) event, and an admitted worker runs one whole operation
// before it yields. So the order in which syscall paths touch the mount
// table, dcache, vnodes and the page and buffer caches, book the CPU
// pool, and queue device commands is a pure function of virtual time,
// and none of those structures carries a host lock or an atomic. The
// rule (docs/architecture.md, "Determinism contract"): a host lock or
// atomic survives only where two host goroutines can reach the same
// state at the same host instant. Nothing in this package is such a
// place — page memory too belongs to the mount (pagepool.go). Callers
// outside the harness that want several simulated threads drive them
// through a vclock.Group, exactly as the harness does.
package kernel

import (
	"fmt"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// Task is a simulated thread of execution: one application thread inside a
// system call, a FUSE daemon worker, or a journal commit thread. It owns a
// virtual clock that all costs on its path advance.
type Task struct {
	Name string
	Clk  *vclock.Clock
	kern *Kernel
	rec  *trace.Recorder // copied from the kernel at creation; nil = untraced
}

// Charge advances the task's clock by a modeled CPU cost. CPU time is
// serviced by the kernel's core pool, so concurrent tasks beyond the core
// count queue — thread scaling plateaus at the hardware parallelism, as
// the paper's 32-thread runs do on 8 cores. Device waits do not go
// through Charge and so never occupy a core.
func (t *Task) Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if t.kern != nil && t.kern.cpus != nil {
		t.Clk.AdvanceTo(t.kern.cpus.Acquire(t.Clk.NowNS(), int64(d)))
		return
	}
	t.Clk.Advance(d)
}

// Kernel reports the kernel this task runs in.
func (t *Task) Kernel() *Kernel { return t.kern }

// Model reports the cost model in effect.
func (t *Task) Model() *costmodel.Model { return t.kern.model }

// Rec reports the trace recorder this task records into; nil means the
// task is untraced and all recording sites no-op. The task's Name is its
// trace track.
func (t *Task) Rec() *trace.Recorder { return t.rec }

// WaitIO advances the task's clock to the completion time of previously
// submitted device work, recording the stall — the interval the task
// actually spends waiting, not the overlapped service time — as a
// device-category span. It is the traced spelling of
// t.Clk.AdvanceTo(completion) on batched-submit paths.
func (t *Task) WaitIO(name string, completion int64) {
	t.waitSpan(trace.CatDevice, name, completion)
}

// WaitJournal is WaitIO for a wait on the journal rather than the
// device — a commit waiting out the previous commit's checkpoint before
// it writes its commit record — recorded as a journal-category span.
func (t *Task) WaitJournal(name string, completion int64) {
	t.waitSpan(trace.CatJournal, name, completion)
}

// waitSpan records [now, until) under cat/name when until is in the
// task's future, then advances the clock there. Free when untraced.
func (t *Task) waitSpan(cat, name string, until int64) {
	if r := t.rec; r != nil {
		if now := t.Clk.NowNS(); until > now {
			r.Span(t.Name, cat, name, now, until)
		}
	}
	t.Clk.AdvanceTo(until)
}

// endSyscall closes a syscall-category span opened at start (captured by
// chargeSyscall) and bumps the syscall counter. Deferred by every VFS
// entry point; free when untraced.
func (t *Task) endSyscall(name string, start int64) {
	if r := t.rec; r != nil {
		r.Span(t.Name, trace.CatSyscall, name, start, t.Clk.NowNS())
		r.Add(trace.CtrSyscalls, 1)
	}
}

// FileSystemType is a file-system module registered with the kernel, the
// analogue of struct file_system_type.
type FileSystemType interface {
	// Name is the type name used at mount time ("xv6", "ext4", "bentofs").
	Name() string
	// Mount creates a per-superblock FileSystem instance over dev.
	Mount(t *Task, dev *blockdev.Device) (FileSystem, error)
}

// FileSystem is the per-mount operations vector — the simulated VFS
// interface. The xv6 C baseline and the ext4-like comparator implement it
// directly; Bento file systems sit behind the BentoFS shim in
// internal/core, which implements this interface once and translates to
// the file-operations API.
type FileSystem interface {
	// Root reports the root inode number.
	Root() fsapi.Ino
	// Lookup resolves name within directory dir.
	Lookup(t *Task, dir fsapi.Ino, name string) (fsapi.Stat, error)
	// GetAttr returns the attributes of ino.
	GetAttr(t *Task, ino fsapi.Ino) (fsapi.Stat, error)
	// SetSize truncates or extends the file (ftruncate/O_TRUNC path).
	SetSize(t *Task, ino fsapi.Ino, size int64) error
	// Create makes a regular file. It fails with fsapi.ErrExist if name
	// exists.
	Create(t *Task, dir fsapi.Ino, name string) (fsapi.Stat, error)
	// Mkdir makes a directory.
	Mkdir(t *Task, dir fsapi.Ino, name string) (fsapi.Stat, error)
	// Unlink removes a file link.
	Unlink(t *Task, dir fsapi.Ino, name string) error
	// Rmdir removes an empty directory.
	Rmdir(t *Task, dir fsapi.Ino, name string) error
	// Rename moves/renames, replacing an existing target when permitted.
	Rename(t *Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error
	// Link creates a hard link to ino under dir/name.
	Link(t *Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error)
	// ReadDir lists a directory.
	ReadDir(t *Task, dir fsapi.Ino) ([]fsapi.DirEntry, error)
	// Open notifies the file system of an open (reference acquisition).
	Open(t *Task, ino fsapi.Ino) error
	// Release drops the open reference; the file system frees orphaned
	// (nlink==0) inodes here.
	Release(t *Task, ino fsapi.Ino) error
	// ReadPage fills buf (one page) with file contents at page index pg.
	// It writes EVERY byte of buf or returns an error: bytes past the
	// file system's EOF — the tail of the last page, a hole, a page the
	// kernel's size covers but the file system has not been told of yet —
	// are written as zeros. buf arrives holding unspecified bytes (the
	// page cache recycles pages without clearing them), so a byte left
	// alone is another file's. TestReadPageFillsEveryByte in the
	// repository root holds every implementation to this.
	ReadPage(t *Task, ino fsapi.Ino, pg int64, buf []byte) error
	// WritePage persists one dirty page and the new file size. The VFS
	// baseline path calls this once per page (->writepage). The kernel
	// gives buf up: it never writes the buffer again after this call,
	// whatever the call returns, so the file system may pass it on to the
	// device as the block's contents instead of copying it (and must not
	// write it either: the page cache goes on reading it).
	WritePage(t *Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error
	// Fsync makes the named file durable.
	Fsync(t *Task, ino fsapi.Ino, dataOnly bool) error
	// Sync makes the whole file system durable.
	Sync(t *Task) error
	// StatFS reports usage.
	StatFS(t *Task) (fsapi.FSStat, error)
	// Unmount flushes and shuts down; the kernel calls Sync first.
	Unmount(t *Task) error
}

// BatchWriter is the optional batched write-back interface
// (->writepages). BentoFS implements it — inherited from the FUSE kernel
// module — which is why the paper's Bento xv6 beats the C baseline on
// large sequential writes. pages are consecutive starting at pg. Like
// WritePage's buffer every page buffer is given up: the kernel never
// writes one again, whatever the call returns. The pages slice itself
// stays the kernel's.
type BatchWriter interface {
	WritePages(t *Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error
}

// PageLender is the optional zero-copy page fill. LendPage returns page
// pg of ino as a PageSize view of the file system's (in the end the
// storage backend's) own buffer: read-only, and valid and unchanged for as
// long as the caller holds it, whatever happens to the file afterwards —
// there is nothing to give back. A lend is ReadPage in everything but the
// copy: the same device command at the same virtual instant, the same
// charges, counters and trace spans. When the file system cannot lend the
// page (it is not a whole block of file data: a partial last page, an
// inode whose data goes through the buffer cache) it returns a nil view
// and a nil error having consumed no virtual time and changed no state,
// and the caller falls back to ReadPage. TestLendPageMatchesReadPage in
// the repository root holds every implementation to this.
type PageLender interface {
	LendPage(t *Task, ino fsapi.Ino, pg int64) (view []byte, err error)
}

// Kernel is the simulated kernel instance: registered file-system types,
// active mounts, and the cost model.
type Kernel struct {
	model *costmodel.Model
	cpus  *vclock.Resource
	rec   *trace.Recorder

	fstypes map[string]FileSystemType
	mounts  map[string]*Mount
}

// New creates a kernel using the given cost model (nil = Default).
func New(model *costmodel.Model) *Kernel {
	if model == nil {
		model = costmodel.Default()
	}
	cpus := model.CPUs
	if cpus <= 0 {
		cpus = 8
	}
	return &Kernel{
		model:   model,
		cpus:    vclock.NewResource("cpu", cpus),
		fstypes: make(map[string]FileSystemType),
		mounts:  make(map[string]*Mount),
	}
}

// Model reports the kernel's cost model.
func (k *Kernel) Model() *costmodel.Model { return k.model }

// SetRecorder attaches a trace recorder. Tasks copy the pointer at
// creation, so it must be set before any task exists — the harness does
// it right after New, before mkfs/mount. A nil recorder (the default)
// keeps every recording site a no-op.
func (k *Kernel) SetRecorder(r *trace.Recorder) { k.rec = r }

// Recorder reports the attached trace recorder (nil when untraced).
func (k *Kernel) Recorder() *trace.Recorder { return k.rec }

// NewTask creates a task starting at virtual time zero.
func (k *Kernel) NewTask(name string) *Task {
	return &Task{Name: name, Clk: vclock.NewClock(), kern: k, rec: k.rec}
}

// NewTaskWithClock creates a task sharing an existing clock (used by
// benchmark workers whose clocks belong to a vclock.Group).
func (k *Kernel) NewTaskWithClock(name string, clk *vclock.Clock) *Task {
	return &Task{Name: name, Clk: clk, kern: k, rec: k.rec}
}

// Register adds a file-system type, like register_filesystem(9). It fails
// if the name is taken.
func (k *Kernel) Register(fst FileSystemType) error {
	if _, dup := k.fstypes[fst.Name()]; dup {
		return fmt.Errorf("kernel: filesystem type %q already registered: %w", fst.Name(), fsapi.ErrExist)
	}
	k.fstypes[fst.Name()] = fst
	return nil
}

// Unregister removes a file-system type. It fails if any mount uses it.
func (k *Kernel) Unregister(name string) error {
	if _, ok := k.fstypes[name]; !ok {
		return fmt.Errorf("kernel: filesystem type %q: %w", name, fsapi.ErrNotExist)
	}
	for _, m := range k.mounts {
		if m.fstype == name {
			return fmt.Errorf("kernel: filesystem type %q in use by mount %q: %w", name, m.mountPoint, fsapi.ErrBusy)
		}
	}
	delete(k.fstypes, name)
	return nil
}

// Mount mounts a registered file-system type over dev at mountPoint (an
// opaque label; mounts are independent namespaces in the simulation).
func (k *Kernel) Mount(t *Task, fstype, mountPoint string, dev *blockdev.Device) (*Mount, error) {
	fst, ok := k.fstypes[fstype]
	if !ok {
		return nil, fmt.Errorf("kernel: unknown filesystem type %q: %w", fstype, fsapi.ErrNotExist)
	}
	if _, busy := k.mounts[mountPoint]; busy {
		return nil, fmt.Errorf("kernel: mount point %q: %w", mountPoint, fsapi.ErrBusy)
	}
	fs, err := fst.Mount(t, dev)
	if err != nil {
		return nil, fmt.Errorf("kernel: mounting %q on %q: %w", fstype, mountPoint, err)
	}
	m := newMount(k, fstype, mountPoint, fs, dev)
	k.mounts[mountPoint] = m
	return m, nil
}

// Unmount syncs and detaches the mount at mountPoint. While a file on it
// is open the mount is busy: Unmount returns fsapi.ErrBusy and keeps it.
func (k *Kernel) Unmount(t *Task, mountPoint string) error {
	m, ok := k.mounts[mountPoint]
	if !ok {
		return fmt.Errorf("kernel: mount point %q: %w", mountPoint, fsapi.ErrNotExist)
	}
	if m.busy() {
		return fmt.Errorf("kernel: unmount %q: files still open: %w", mountPoint, fsapi.ErrBusy)
	}
	delete(k.mounts, mountPoint)
	return m.shutdown(t)
}
