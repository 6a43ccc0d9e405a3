package fuse

import (
	"encoding/binary"
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
	TypeName string
	// Factory builds the userspace file system hosted by the daemon.
	Factory func() core.FileSystem
	// DiskCacheBlocks sizes the daemon's user-level buffer cache.
	DiskCacheBlocks int
}

// Name implements kernel.FileSystemType.
func (tt Type) Name() string {
	if tt.TypeName == "" {
		return "fuse"
	}
	return tt.TypeName
}

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
	sess := &Session{fs: fs}
	return &Driver{sess: sess}, nil
}

// Session is the userspace daemon: it owns the hosted file system and
// serves decoded requests one at a time (the single-threaded libfuse
// loop). The gate is virtual: freeAt is when the daemon finishes its
// current request, and a request arriving earlier waits until then. On
// the host a round trip runs to completion on the one admitted task.
//
// The Session also owns the transport's scratch — both wire buffers, the
// daemon's payload buffer and the decoded request and reply — so a round
// trip allocates nothing once they have grown. The task running the
// round trip owns the scratch while it runs; the rules (see the package
// comment): (1) nothing that aliases the scratch outlives the Driver
// method that made the round trip, (2) a round trip is not re-entrant,
// (3) a gathered WRITE is exactly total bytes, copied or zero-filled,
// (4) a reply header is fully rewritten on every encode, (5) the hosted
// file system's UserDisk is only ever reached inside a round trip.
type Session struct {
	fs core.FileSystem

	freeAt int64 // virtual time the daemon finishes its current request

	// Transport scratch; owned by the running round trip.
	reqWire []byte  // request as written to /dev/fuse
	repWire []byte  // reply as written back
	payload []byte  // daemon side: READ data, encoded dirents, statfs
	req     Request // daemon side: decoded in place, Data aliases reqWire
	rep     Reply   // daemon side: Data aliases payload
	out     Reply   // kernel side: decoded in place, Data aliases repWire

	requests int64
	bytesIn  int64
	bytesOut int64
}

// Requests reports how many requests the daemon served.
func (s *Session) Requests() int64 { return s.requests }

// FS exposes the hosted file system (tests).
func (s *Session) FS() core.FileSystem { return s.fs }

// dispatch executes one decoded request on the daemon and fills rep,
// resetting every field: a failed request's reply carries the errno and
// nothing else. A payload goes into s.payload.
func (s *Session) dispatch(t *kernel.Task, req *Request, rep *Reply) {
	*rep = Reply{Unique: req.Unique}
	var st fsapi.Stat
	var err error
	switch req.Op {
	case OpLookup:
		st, err = s.fs.Lookup(t, fsapi.Ino(req.Nodeid), req.Name)
		rep.Attr = StatToWire(st)
	case OpGetAttr:
		st, err = s.fs.GetAttr(t, fsapi.Ino(req.Nodeid))
		rep.Attr = StatToWire(st)
	case OpSetAttr:
		err = s.fs.SetAttr(t, fsapi.Ino(req.Nodeid), req.Off)
	case OpCreate:
		st, err = s.fs.Create(t, fsapi.Ino(req.Nodeid), req.Name)
		rep.Attr = StatToWire(st)
	case OpMkdir:
		st, err = s.fs.Mkdir(t, fsapi.Ino(req.Nodeid), req.Name)
		rep.Attr = StatToWire(st)
	case OpUnlink:
		err = s.fs.Unlink(t, fsapi.Ino(req.Nodeid), req.Name)
	case OpRmdir:
		err = s.fs.Rmdir(t, fsapi.Ino(req.Nodeid), req.Name)
	case OpRename:
		err = s.fs.Rename(t, fsapi.Ino(req.Nodeid), req.Name, fsapi.Ino(req.Target), req.Name2)
	case OpLink:
		st, err = s.fs.Link(t, fsapi.Ino(req.Target), fsapi.Ino(req.Nodeid), req.Name)
		rep.Attr = StatToWire(st)
	case OpOpen:
		err = s.fs.Open(t, fsapi.Ino(req.Nodeid))
	case OpRelease:
		err = s.fs.Release(t, fsapi.Ino(req.Nodeid))
	case OpRead:
		var n int
		s.payload = sized(s.payload, int(req.Size))
		n, err = s.fs.Read(t, fsapi.Ino(req.Nodeid), req.Off, s.payload)
		rep.Data = s.payload[:n]
	case OpWrite:
		var n int
		n, err = s.fs.Write(t, fsapi.Ino(req.Nodeid), req.Off, req.Data)
		rep.Attr.Size = int64(n)
	case OpFsync:
		err = s.fs.Fsync(t, fsapi.Ino(req.Nodeid), req.Flags != 0)
	case OpReadDir:
		var ents []fsapi.DirEntry
		ents, err = s.fs.ReadDir(t, fsapi.Ino(req.Nodeid))
		s.payload = appendDirents(s.payload[:0], ents)
		rep.Data = s.payload
	case OpStatFS:
		var fst fsapi.FSStat
		fst, err = s.fs.StatFS(t)
		s.payload = appendFSStat(s.payload[:0], fst)
		rep.Data = s.payload
	case OpSyncFS:
		err = s.fs.SyncFS(t)
	case OpDestroy:
		err = s.fs.Destroy(t)
	default:
		err = fsapi.ErrNotSupported
	}
	if err != nil {
		*rep = Reply{Unique: req.Unique, Errno: ErrnoFor(err)}
	}
}

// Driver is the kernel side: it implements the simulated VFS interface by
// packaging every call as a wire request, passing it through the
// transport cost model and the daemon gate, and decoding the reply.
type Driver struct {
	sess   *Session
	unique uint64
}

var (
	_ kernel.FileSystem  = (*Driver)(nil)
	_ kernel.BatchWriter = (*Driver)(nil)
)

// Session exposes the daemon (tests and stats).
func (d *Driver) Session() *Session { return d.sess }

// roundTrip carries one request to the daemon and back, charging the
// transport costs the paper attributes to FUSE: marshaling, copies,
// context switches, and daemon serialization. When traced, the whole
// round-trip is one fuse-category span on the caller's track — the
// userspace-crossing tax — with the stall behind the single-threaded
// daemon nested inside it as "gate-wait".
//
// Every step works in the session's scratch. A WRITE's payload is
// gathered from pages (exactly total bytes) straight into the request
// wire; a READ's reply payload lands in dst, whose tail past the payload
// is zero-filled. The returned Reply is the session's: it, and a Data
// not taken by dst, are valid only until the next round trip.
func (d *Driver) roundTrip(t *kernel.Task, req *Request, pages [][]byte, total int, dst []byte) (*Reply, error) {
	s := d.sess
	m := t.Model()
	d.unique++
	req.Unique = d.unique
	rec := t.Rec()
	var rtStart int64
	if rec != nil {
		rtStart = t.Clk.NowNS()
	}

	// Kernel side: marshal, copy to the daemon, wake it.
	t.Charge(m.FuseMsg)
	s.reqWire = encodeRequest(s.reqWire, req, pages, total)
	wireLen := len(s.reqWire)
	t.Charge(m.Copy(wireLen))
	t.Charge(m.CtxSwitch)
	s.bytesIn += int64(wireLen)

	// Daemon: single-threaded service, modelled in virtual time.
	if s.freeAt > t.Clk.NowNS() {
		if rec != nil {
			rec.Span(t.Name, trace.CatFuse, "gate-wait", t.Clk.NowNS(), s.freeAt)
		}
		t.Clk.AdvanceTo(s.freeAt)
	}
	if err := decodeRequest(s.reqWire, &s.req); err != nil {
		s.rep = Reply{Unique: req.Unique, Errno: ErrnoFor(err)}
	} else {
		s.requests++
		t.Charge(m.FuseMsg) // daemon-side parse/dispatch
		s.dispatch(t, &s.req, &s.rep)
	}
	s.freeAt = t.Clk.NowNS()

	// Reply path: marshal, copy back, wake the caller.
	t.Charge(m.FuseMsg)
	s.repWire = encodeReply(s.repWire, &s.rep)
	repLen := len(s.repWire)
	t.Charge(m.Copy(repLen))
	t.Charge(m.CtxSwitch)
	s.bytesOut += int64(repLen)
	if rec != nil {
		rec.SpanAB(t.Name, trace.CatFuse, opTraceName(req.Op), rtStart, t.Clk.NowNS(),
			int64(wireLen), int64(repLen))
		rec.Add(trace.CtrFuseRequests, 1)
		rec.Add(trace.CtrFuseBytesIn, int64(wireLen))
		rec.Add(trace.CtrFuseBytesOut, int64(repLen))
	}

	out := &s.out
	if err := decodeReply(s.repWire, out); err != nil {
		return nil, err
	}
	if out.Errno != 0 {
		return nil, ErrFromErrno(out.Errno)
	}
	if dst != nil {
		clear(dst[copy(dst, out.Data):])
		out.Data = nil
	}
	return out, nil
}

// call is a round trip with no bulk payload either way: it copies the
// reply's attributes out of the session's scratch.
func (d *Driver) call(t *kernel.Task, req *Request) (WireAttr, error) {
	rep, err := d.roundTrip(t, req, nil, 0, nil)
	if err != nil {
		return WireAttr{}, err
	}
	return rep.Attr, nil
}

// stat is call for the requests answered with an inode's attributes.
func (d *Driver) stat(t *kernel.Task, req *Request) (fsapi.Stat, error) {
	attr, err := d.call(t, req)
	if err != nil {
		return fsapi.Stat{}, err
	}
	return attr.WireToStat(), nil
}

// Root implements kernel.FileSystem.
func (d *Driver) Root() fsapi.Ino { return fsapi.RootIno }

// Lookup implements kernel.FileSystem.
func (d *Driver) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return d.stat(t, &Request{Op: OpLookup, Nodeid: uint64(dir), Name: name})
}

// GetAttr implements kernel.FileSystem.
func (d *Driver) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	return d.stat(t, &Request{Op: OpGetAttr, Nodeid: uint64(ino)})
}

// SetSize implements kernel.FileSystem.
func (d *Driver) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	_, err := d.call(t, &Request{Op: OpSetAttr, Nodeid: uint64(ino), Off: size})
	return err
}

// Create implements kernel.FileSystem.
func (d *Driver) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return d.stat(t, &Request{Op: OpCreate, Nodeid: uint64(dir), Name: name})
}

// Mkdir implements kernel.FileSystem.
func (d *Driver) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return d.stat(t, &Request{Op: OpMkdir, Nodeid: uint64(dir), Name: name})
}

// Unlink implements kernel.FileSystem.
func (d *Driver) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	_, err := d.call(t, &Request{Op: OpUnlink, Nodeid: uint64(dir), Name: name})
	return err
}

// Rmdir implements kernel.FileSystem.
func (d *Driver) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	_, err := d.call(t, &Request{Op: OpRmdir, Nodeid: uint64(dir), Name: name})
	return err
}

// Rename implements kernel.FileSystem.
func (d *Driver) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	_, err := d.call(t, &Request{Op: OpRename, Nodeid: uint64(odir), Name: oname, Target: uint64(ndir), Name2: nname})
	return err
}

// Link implements kernel.FileSystem.
func (d *Driver) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	return d.stat(t, &Request{Op: OpLink, Nodeid: uint64(dir), Target: uint64(ino), Name: name})
}

// ReadDir implements kernel.FileSystem. The listing is decoded before
// returning: its payload lives in the session's reply buffer.
func (d *Driver) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpReadDir, Nodeid: uint64(dir)}, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	return decodeDirents(rep.Data)
}

// Open implements kernel.FileSystem.
func (d *Driver) Open(t *kernel.Task, ino fsapi.Ino) error {
	_, err := d.call(t, &Request{Op: OpOpen, Nodeid: uint64(ino)})
	return err
}

// Release implements kernel.FileSystem.
func (d *Driver) Release(t *kernel.Task, ino fsapi.Ino) error {
	_, err := d.call(t, &Request{Op: OpRelease, Nodeid: uint64(ino)})
	return err
}

// ReadPage implements kernel.FileSystem: the reply's payload is copied
// from the session's reply buffer straight into the page.
func (d *Driver) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	_, err := d.roundTrip(t, &Request{Op: OpRead, Nodeid: uint64(ino), Off: pg * fsapi.PageSize, Size: uint32(len(buf))}, nil, 0, buf)
	return err
}

// WritePage implements kernel.FileSystem.
func (d *Driver) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	return d.WritePages(t, ino, pg, [][]byte{buf}, newSize)
}

// WritePages implements kernel.BatchWriter: the FUSE writeback cache
// batches dirty pages into WRITE requests of up to max_pages each, each
// gathered from the pages straight into the request wire.
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
		written, err := d.write(t, ino, off, pages[start:end], int(total))
		if err != nil {
			return err
		}
		if written != total {
			return fmt.Errorf("fuse: short write %d of %d: %w", written, total, fsapi.ErrIO)
		}
	}
	return nil
}

// write is one WRITE round trip of exactly total bytes gathered from
// pages; it reports how many the daemon wrote.
func (d *Driver) write(t *kernel.Task, ino fsapi.Ino, off int64, pages [][]byte, total int) (int64, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpWrite, Nodeid: uint64(ino), Off: off}, pages, total, nil)
	if err != nil {
		return 0, err
	}
	return rep.Attr.Size, nil
}

// Fsync implements kernel.FileSystem.
func (d *Driver) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	var fl uint32
	if dataOnly {
		fl = 1
	}
	_, err := d.call(t, &Request{Op: OpFsync, Nodeid: uint64(ino), Flags: fl})
	return err
}

// Sync implements kernel.FileSystem.
func (d *Driver) Sync(t *kernel.Task) error {
	_, err := d.call(t, &Request{Op: OpSyncFS})
	return err
}

// StatFS implements kernel.FileSystem. Like ReadDir, the payload is
// decoded before returning.
func (d *Driver) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	rep, err := d.roundTrip(t, &Request{Op: OpStatFS}, nil, 0, nil)
	if err != nil {
		return fsapi.FSStat{}, err
	}
	return decodeFSStat(rep.Data)
}

// Unmount implements kernel.FileSystem.
func (d *Driver) Unmount(t *kernel.Task) error {
	if _, err := d.call(t, &Request{Op: OpSyncFS}); err != nil {
		return err
	}
	_, err := d.call(t, &Request{Op: OpDestroy})
	return err
}

// --- payload codecs ---

func appendDirents(out []byte, ents []fsapi.DirEntry) []byte {
	var tmp [11]byte
	for _, e := range ents {
		binary.LittleEndian.PutUint64(tmp[0:], uint64(e.Ino))
		tmp[8] = uint8(e.Type)
		binary.LittleEndian.PutUint16(tmp[9:], uint16(len(e.Name)))
		out = append(out, tmp[:]...)
		out = append(out, e.Name...)
	}
	return out
}

// decodeDirents copies every name out of data, so the listing stays
// valid after the buffer data aliases is reused.
func decodeDirents(data []byte) ([]fsapi.DirEntry, error) {
	var out []fsapi.DirEntry
	for len(data) > 0 {
		if len(data) < 11 {
			return nil, fmt.Errorf("fuse: truncated dirent: %w", fsapi.ErrInvalid)
		}
		ino := binary.LittleEndian.Uint64(data[0:])
		typ := fsapi.FileType(data[8])
		nl := int(binary.LittleEndian.Uint16(data[9:]))
		data = data[11:]
		if len(data) < nl {
			return nil, fmt.Errorf("fuse: truncated dirent name: %w", fsapi.ErrInvalid)
		}
		out = append(out, fsapi.DirEntry{Ino: fsapi.Ino(ino), Type: typ, Name: string(data[:nl])})
		data = data[nl:]
	}
	return out, nil
}

func appendFSStat(out []byte, st fsapi.FSStat) []byte {
	le := binary.LittleEndian
	out = le.AppendUint64(out, uint64(st.TotalBlocks))
	out = le.AppendUint64(out, uint64(st.FreeBlocks))
	out = le.AppendUint64(out, uint64(st.TotalInodes))
	return le.AppendUint64(out, uint64(st.FreeInodes))
}

func decodeFSStat(data []byte) (fsapi.FSStat, error) {
	if len(data) < 32 {
		return fsapi.FSStat{}, fmt.Errorf("fuse: truncated statfs: %w", fsapi.ErrInvalid)
	}
	le := binary.LittleEndian
	return fsapi.FSStat{
		TotalBlocks: int64(le.Uint64(data[0:])),
		FreeBlocks:  int64(le.Uint64(data[8:])),
		TotalInodes: int64(le.Uint64(data[16:])),
		FreeInodes:  int64(le.Uint64(data[24:])),
	}, nil
}
