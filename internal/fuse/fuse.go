package fuse

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/trace"
)

// maxWritePages caps one WRITE request at the FUSE default max_pages (32
// pages = 128 KiB); larger write-back runs are split into several
// requests, each paying the full transport cost.
const maxWritePages = 32

// Type registers a FUSE mount whose daemon hosts the file system built by
// Factory — in the experiments, the same xv6 implementation the Bento
// variant uses, initialized with the userspace disk.
type Type struct {
	// Factory builds the userspace file system hosted by the daemon.
	Factory func() core.FileSystem
	// DiskCacheBlocks sizes the daemon's user-level buffer cache.
	DiskCacheBlocks int
}

// Name implements kernel.FileSystemType.
func (Type) Name() string { return "fuse" }

// Mount implements kernel.FileSystemType: start the daemon (opening the
// disk file O_DIRECT) and attach the kernel driver to it.
func (tt Type) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	if tt.Factory == nil {
		return nil, fmt.Errorf("fuse: mount %q: nil Factory: %w", tt.Name(), fsapi.ErrInvalid)
	}
	if tt.DiskCacheBlocks < 0 {
		return nil, fmt.Errorf("fuse: mount %q: negative DiskCacheBlocks %d: %w",
			tt.Name(), tt.DiskCacheBlocks, fsapi.ErrInvalid)
	}
	fs := tt.Factory()
	ud := NewUserDisk(dev, tt.DiskCacheBlocks)
	if err := fs.Init(t, ud); err != nil {
		return nil, fmt.Errorf("fuse: daemon init: %w", err)
	}
	sess := &Session{fs: fs, disk: ud}
	sess.lender, _ = fs.(core.PageLender)
	return &Driver{sess: sess}, nil
}

// Session is the userspace daemon: it owns the hosted file system and
// serves requests one at a time (the single-threaded libfuse loop). The
// gate is virtual: freeAt is when the daemon finishes its current
// request, and a request arriving earlier waits until then. On the host
// a round trip runs to completion on the one admitted task.
//
// The Session also owns the daemon's payload buffer — a copied READ's
// result, a WRITE flattened for a file system without the page-vector
// write — so a round trip allocates nothing once it has grown; the task
// running the round trip owns it while it runs (see the package
// comment's rules).
type Session struct {
	fs     core.FileSystem
	lender core.PageLender // fs as a PageLender; nil when it is not one
	disk   *UserDisk       // the disk file fs runs on

	freeAt  int64  // virtual time the daemon finishes its current request
	payload []byte // owned by the running round trip
}

// FS exposes the hosted file system (tests).
func (s *Session) FS() core.FileSystem { return s.fs }

// serve executes one request on the daemon. A failed request's reply
// carries the errno and nothing else; a READ's data lands in s.payload,
// or is the hosted file system's own view when the READ is a lend.
func (s *Session) serve(t *kernel.Task, req *Request) Reply {
	var rep Reply
	var err error
	ino := fsapi.Ino(req.Nodeid)
	switch req.Op {
	case OpLookup:
		rep.Attr, err = s.fs.Lookup(t, ino, req.Name)
	case OpGetAttr:
		rep.Attr, err = s.fs.GetAttr(t, ino)
	case OpSetAttr:
		err = s.fs.SetAttr(t, ino, req.Off)
	case OpCreate:
		rep.Attr, err = s.fs.Create(t, ino, req.Name)
	case OpMkdir:
		rep.Attr, err = s.fs.Mkdir(t, ino, req.Name)
	case OpUnlink:
		err = s.fs.Unlink(t, ino, req.Name)
	case OpRmdir:
		err = s.fs.Rmdir(t, ino, req.Name)
	case OpRename:
		err = s.fs.Rename(t, ino, req.Name, fsapi.Ino(req.Target), req.Name2)
	case OpLink:
		rep.Attr, err = s.fs.Link(t, fsapi.Ino(req.Target), ino, req.Name)
	case OpOpen:
		err = s.fs.Open(t, ino)
	case OpRelease:
		err = s.fs.Release(t, ino)
	case OpRead:
		if req.lend {
			rep.Data, err = s.lender.LendPage(t, ino, req.Off/fsapi.PageSize)
			break
		}
		s.payload = sized(s.payload, int(req.Size))
		var n int
		n, err = s.fs.Read(t, ino, req.Off, s.payload)
		rep.Data = s.payload[:n]
	case OpWrite:
		rep.Written, err = core.WriteRun(t, s.fs, ino, req.Off, req.Pages, int64(req.Size), &s.payload)
	case OpFsync:
		err = s.fs.Fsync(t, ino, req.Flags != 0)
	case OpReadDir:
		rep.Ents, err = s.fs.ReadDir(t, ino)
	case OpStatFS:
		rep.FSStat, err = s.fs.StatFS(t)
	case OpSyncFS:
		err = s.fs.SyncFS(t)
	case OpDestroy:
		err = s.destroy(t)
	default:
		err = fsapi.ErrNotSupported
	}
	if err != nil {
		return Reply{Errno: ErrnoFor(err)}
	}
	return rep
}

// destroy is DESTROY: the hosted file system's teardown, then the leak
// check BentoFS.Unmount runs through its ownership checker, made here by
// counting the daemon's buffers still referenced.
func (s *Session) destroy(t *kernel.Task) error {
	if err := s.fs.Destroy(t); err != nil {
		return err
	}
	if n := s.disk.Held(); n > 0 {
		return fmt.Errorf("fuse: daemon holds %d buffer(s) at DESTROY: %w", n, fsapi.ErrInvalid)
	}
	return nil
}

// Driver is the kernel side: it implements the simulated VFS interface by
// passing every call to the daemon as a request, through the transport
// cost model and the daemon gate.
type Driver struct {
	sess *Session
}

var (
	_ kernel.FileSystem  = (*Driver)(nil)
	_ kernel.BatchWriter = (*Driver)(nil)
	_ kernel.PageLender  = (*Driver)(nil)
)

// Session exposes the daemon (tests and stats).
func (d *Driver) Session() *Session { return d.sess }

// roundTrip carries one request to the daemon and back, charging the
// transport costs the paper attributes to FUSE: marshaling, copies of
// both messages' wire bytes, context switches, and daemon serialization.
// When traced, the whole round-trip is one fuse-category span on the
// caller's track — the userspace-crossing tax — with the stall behind
// the single-threaded daemon nested inside it as "gate-wait".
//
// A failed request returns the zero Reply and its errno's sentinel. A
// successful reply's Data aliases the session's payload buffer and is
// valid only until the next round trip.
func (d *Driver) roundTrip(t *kernel.Task, req *Request) (Reply, error) {
	s := d.sess
	m := t.Model()
	rec := t.Rec()
	var rtStart int64
	if rec != nil {
		rtStart = t.Clk.NowNS()
	}

	// Kernel side: marshal, copy to the daemon, wake it.
	t.Charge(m.FuseMsg)
	reqLen := wireLen(req, nil)
	t.Charge(m.Copy(reqLen))
	t.Charge(m.CtxSwitch)

	// Daemon: single-threaded service, modelled in virtual time.
	if s.freeAt > t.Clk.NowNS() {
		if rec != nil {
			rec.Span(t.Name, trace.CatFuse, "gate-wait", t.Clk.NowNS(), s.freeAt)
		}
		t.Clk.AdvanceTo(s.freeAt)
	}
	t.Charge(m.FuseMsg) // daemon-side parse/dispatch
	rep := s.serve(t, req)
	s.freeAt = t.Clk.NowNS()

	// Reply path: marshal, copy back, wake the caller.
	t.Charge(m.FuseMsg)
	repLen := wireLen(req, &rep)
	t.Charge(m.Copy(repLen))
	t.Charge(m.CtxSwitch)
	if rec != nil {
		rec.SpanAB(t.Name, trace.CatFuse, opTraceName(req.Op), rtStart, t.Clk.NowNS(),
			int64(reqLen), int64(repLen))
		rec.Add(trace.CtrFuseRequests, 1)
		rec.Add(trace.CtrFuseBytesIn, int64(reqLen))
		rec.Add(trace.CtrFuseBytesOut, int64(repLen))
	}
	return rep, ErrFromErrno(rep.Errno)
}

// Root implements kernel.FileSystem.
func (d *Driver) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (d *Driver) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpLookup, Nodeid: uint64(dir), Name: name})
	return rep.Attr, err
}

// GetAttr implements kernel.FileSystem.
func (d *Driver) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpGetAttr, Nodeid: uint64(ino)})
	return rep.Attr, err
}

// SetSize implements kernel.FileSystem.
func (d *Driver) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	_, err := d.roundTrip(t, &Request{Op: OpSetAttr, Nodeid: uint64(ino), Off: size})
	return err
}

// Create implements kernel.FileSystem.
func (d *Driver) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpCreate, Nodeid: uint64(dir), Name: name})
	return rep.Attr, err
}

// Mkdir implements kernel.FileSystem.
func (d *Driver) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpMkdir, Nodeid: uint64(dir), Name: name})
	return rep.Attr, err
}

// Unlink implements kernel.FileSystem.
func (d *Driver) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	_, err := d.roundTrip(t, &Request{Op: OpUnlink, Nodeid: uint64(dir), Name: name})
	return err
}

// Rmdir implements kernel.FileSystem.
func (d *Driver) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	_, err := d.roundTrip(t, &Request{Op: OpRmdir, Nodeid: uint64(dir), Name: name})
	return err
}

// Rename implements kernel.FileSystem.
func (d *Driver) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	_, err := d.roundTrip(t, &Request{Op: OpRename, Nodeid: uint64(odir), Name: oname, Target: uint64(ndir), Name2: nname})
	return err
}

// Link implements kernel.FileSystem.
func (d *Driver) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpLink, Nodeid: uint64(dir), Target: uint64(ino), Name: name})
	return rep.Attr, err
}

// ReadDir implements kernel.FileSystem.
func (d *Driver) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpReadDir, Nodeid: uint64(dir)})
	return rep.Ents, err
}

// Open implements kernel.FileSystem.
func (d *Driver) Open(t *kernel.Task, ino fsapi.Ino) error {
	_, err := d.roundTrip(t, &Request{Op: OpOpen, Nodeid: uint64(ino)})
	return err
}

// Release implements kernel.FileSystem.
func (d *Driver) Release(t *kernel.Task, ino fsapi.Ino) error {
	_, err := d.roundTrip(t, &Request{Op: OpRelease, Nodeid: uint64(ino)})
	return err
}

// ReadPage implements kernel.FileSystem: the daemon reads into its
// payload buffer, which is copied into the page with the tail past the
// data cleared. A failed READ leaves the page untouched.
func (d *Driver) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	rep, err := d.roundTrip(t, &Request{Op: OpRead, Nodeid: uint64(ino), Off: pg * fsapi.PageSize, Size: uint32(len(buf))})
	if err != nil {
		return err
	}
	clear(buf[copy(buf, rep.Data):])
	return nil
}

// LendPage implements kernel.PageLender: ReadPage answered by reference,
// the way a splice reply moves pages instead of copying them. When the
// daemon's file system says it can lend the page — asked before the round
// trip, so a no costs nothing — the same READ round trip returns the
// file system's own read-only view, and it becomes the page.
func (d *Driver) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	l := d.sess.lender
	if l == nil || !l.CanLendPage(ino, pg) {
		return nil, nil
	}
	rep, err := d.roundTrip(t, &Request{Op: OpRead, Nodeid: uint64(ino), Off: pg * fsapi.PageSize, Size: fsapi.PageSize, lend: true})
	return rep.Data, err
}

// WritePage implements kernel.FileSystem.
func (d *Driver) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	return d.WritePages(t, ino, pg, [][]byte{buf}, newSize)
}

// WritePages implements kernel.BatchWriter: the FUSE writeback cache
// batches dirty pages into WRITE requests of up to max_pages each. A
// request carries the pages the kernel gave up, and the daemon writes
// them as core.WriteRun does — by reference to a file system with the
// page-vector write, flattened into its payload buffer otherwise.
func (d *Driver) WritePages(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	for start := 0; start < len(pages); start += maxWritePages {
		end := start + maxWritePages
		if end > len(pages) {
			end = len(pages)
		}
		off := (pg + int64(start)) * fsapi.PageSize
		if off >= newSize {
			return nil
		}
		total := int64(end-start) * fsapi.PageSize
		if off+total > newSize {
			total = newSize - off
		}
		rep, err := d.roundTrip(t, &Request{Op: OpWrite, Nodeid: uint64(ino), Off: off, Size: uint32(total), Pages: pages[start:end]})
		if err != nil {
			return err
		}
		if int64(rep.Written) != total {
			return fmt.Errorf("fuse: short write %d of %d: %w", rep.Written, total, fsapi.ErrIO)
		}
	}
	return nil
}

// Fsync implements kernel.FileSystem.
func (d *Driver) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	var fl uint32
	if dataOnly {
		fl = 1
	}
	_, err := d.roundTrip(t, &Request{Op: OpFsync, Nodeid: uint64(ino), Flags: fl})
	return err
}

// Sync implements kernel.FileSystem.
func (d *Driver) Sync(t *kernel.Task) error {
	_, err := d.roundTrip(t, &Request{Op: OpSyncFS})
	return err
}

// StatFS implements kernel.FileSystem.
func (d *Driver) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpStatFS})
	return rep.FSStat, err
}

// Unmount implements kernel.FileSystem.
func (d *Driver) Unmount(t *kernel.Task) error {
	if err := d.Sync(t); err != nil {
		return err
	}
	_, err := d.roundTrip(t, &Request{Op: OpDestroy})
	return err
}
