// Package fuse simulates the FUSE transport the paper uses as its
// userspace baseline: a kernel driver that packages VFS operations into
// wire-format requests, a userspace daemon that serves them, and a
// userspace storage layer doing O_DIRECT block I/O on the "disk file".
//
// The file system hosted by the daemon is the *same* xv6 code as the
// Bento variant (internal/xv6/bentoimpl), initialized with the userspace
// Disk instead of the kernel SuperBlock — the paper's observation that
// "the code for this version is nearly identical to the code written
// using our framework", and the §4.9 run-the-same-code-in-userspace
// architecture.
//
// Costs modeled per operation: request/reply marshaling, data copies
// across the user/kernel boundary, two context switches, daemon
// serialization, per-block syscalls for storage access, and — dominating
// the paper's write-path results — a real device FLUSH whenever the
// userspace file system needs durability, because fsync on the disk file
// is the only ordering primitive userspace has.
//
// Those costs are virtual-time charges; they are the asymmetry the paper
// measures. The host-side transport pays none of them: in steady state
// one round trip allocates nothing. The Session owns the request wire
// buffer, the reply wire buffer, the daemon's payload buffer and the
// decoded Request/Reply structs. There is no host lock: the daemon's
// single-threadedness is modelled in virtual time (Session.freeAt), and
// on the host a round trip runs start to finish on the one task the
// scheduler has admitted, so the task running the round trip owns that
// scratch while it runs. The ownership rules:
//
//  1. The scratch is valid only while the round trip runs. Nothing that
//     aliases it — Request.Data, the daemon's READ buffer, a reply
//     payload — may be retained past the Driver method that made the
//     round trip: READ payloads are copied into the caller's page,
//     READDIR and STATFS payloads are decoded before it returns, and
//     names are copied out of the wire as strings because the hosted
//     file system may keep them.
//  2. A round trip is not re-entrant: the hosted file system reaches
//     storage through UserDisk, never back through the Driver.
//  3. A gathered WRITE puts exactly total bytes on the wire, copied from
//     the kernel's pages or zero-filled — never bytes left over from an
//     earlier, larger request.
//  4. A reply header is fully rewritten, pad bytes included, on every
//     encode.
//  5. UserDisk is daemon-private: every call runs inside a round trip,
//     or at mount before the Driver exists. That is what makes recycling
//     an evicted block safe against BReadDirect's unpinned Peek.
package fuse

import (
	"encoding/binary"
	"fmt"

	"bento/internal/fsapi"
)

// Opcode identifies a FUSE request type (subset of the low-level API).
type Opcode uint32

// Opcodes.
const (
	OpLookup Opcode = iota + 1
	OpGetAttr
	OpSetAttr
	OpCreate
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpLink
	OpOpen
	OpRelease
	OpRead
	OpWrite
	OpFsync
	OpReadDir
	OpStatFS
	OpSyncFS
	OpInit
	OpDestroy
)

// opTraceNames names every opcode; the table serves both Opcode.String
// and the const span names of traced round trips.
var opTraceNames = [OpDestroy + 1]string{
	OpLookup: "LOOKUP", OpGetAttr: "GETATTR", OpSetAttr: "SETATTR",
	OpCreate: "CREATE", OpMkdir: "MKDIR", OpUnlink: "UNLINK",
	OpRmdir: "RMDIR", OpRename: "RENAME", OpLink: "LINK",
	OpOpen: "OPEN", OpRelease: "RELEASE", OpRead: "READ",
	OpWrite: "WRITE", OpFsync: "FSYNC", OpReadDir: "READDIR",
	OpStatFS: "STATFS", OpSyncFS: "SYNCFS", OpInit: "INIT", OpDestroy: "DESTROY",
}

// opName returns the table's name for o, "" for an unknown opcode.
func opName(o Opcode) string {
	if o < Opcode(len(opTraceNames)) {
		return opTraceNames[o]
	}
	return ""
}

// opTraceName is String with a const fallback, so a traced round trip
// never allocates.
func opTraceName(o Opcode) string {
	if n := opName(o); n != "" {
		return n
	}
	return "OP?"
}

// String names the opcode for diagnostics.
func (o Opcode) String() string {
	if n := opName(o); n != "" {
		return n
	}
	return fmt.Sprintf("OP(%d)", uint32(o))
}

// Request is one FUSE request as marshaled through /dev/fuse. Nodeid and
// Target carry inode numbers; Name and Name2 carry path components; Off,
// Size carry I/O geometry; Data carries write payloads. After
// decodeRequest, Data aliases the wire buffer it was decoded from.
type Request struct {
	Op     Opcode
	Unique uint64
	Nodeid uint64
	Target uint64
	Off    int64
	Size   uint32
	Flags  uint32
	Name   string
	Name2  string
	Data   []byte
}

// Reply is the daemon's answer. Errno is 0 on success; Attr carries
// stat-like payloads; Data carries read results or directory listings.
// After decodeReply, Data aliases the wire buffer it was decoded from.
type Reply struct {
	Unique uint64
	Errno  int32
	Attr   WireAttr
	Data   []byte
}

// WireAttr is the on-wire attribute block.
type WireAttr struct {
	Ino   uint64
	Size  int64
	Nlink uint32
	Kind  uint8
}

// StatToWire converts a kernel stat to the wire form.
func StatToWire(st fsapi.Stat) WireAttr {
	return WireAttr{Ino: uint64(st.Ino), Size: st.Size, Nlink: st.Nlink, Kind: uint8(st.Type)}
}

// WireToStat converts back.
func (w WireAttr) WireToStat() fsapi.Stat {
	return fsapi.Stat{Ino: fsapi.Ino(w.Ino), Size: w.Size, Nlink: w.Nlink, Type: fsapi.FileType(w.Kind)}
}

const reqHeaderSize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 2 + 2 // fixed fields + name lengths

// sized returns buf resliced to n bytes, reallocating only when its
// capacity is too small. The contents are unspecified: every encoder
// below overwrites all n bytes.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// encodeRequest marshals r into buf's storage (grown if needed) and
// returns the wire bytes. The payload is r.Data, or — for a WRITE
// gathered straight from the kernel's pages — exactly total bytes taken
// from pages in order and zero-filled past their end. Every byte of the
// result is written, so nothing of an earlier request survives in a
// reused buffer.
func encodeRequest(buf []byte, r *Request, pages [][]byte, total int) []byte {
	if pages == nil {
		total = len(r.Data)
	}
	buf = sized(buf, reqHeaderSize+len(r.Name)+len(r.Name2)+total)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(r.Op))
	le.PutUint64(buf[4:], r.Unique)
	le.PutUint64(buf[12:], r.Nodeid)
	le.PutUint64(buf[20:], r.Target)
	le.PutUint64(buf[28:], uint64(r.Off))
	le.PutUint32(buf[36:], r.Size)
	le.PutUint32(buf[40:], r.Flags)
	le.PutUint16(buf[44:], uint16(len(r.Name)))
	le.PutUint16(buf[46:], uint16(len(r.Name2)))
	n := reqHeaderSize
	n += copy(buf[n:], r.Name)
	n += copy(buf[n:], r.Name2)
	if pages == nil {
		copy(buf[n:], r.Data)
		return buf
	}
	payload := buf[n:]
	for _, p := range pages {
		if len(payload) == 0 {
			break
		}
		payload = payload[copy(payload, p):]
	}
	clear(payload)
	return buf
}

// decodeRequest unmarshals wire into r in place: r.Data aliases wire and
// is valid only as long as wire is. The names are copied out — the
// hosted file system receives them as strings it may keep.
func decodeRequest(wire []byte, r *Request) error {
	if len(wire) < reqHeaderSize {
		return fmt.Errorf("fuse: short request (%d bytes): %w", len(wire), fsapi.ErrInvalid)
	}
	le := binary.LittleEndian
	n1 := int(le.Uint16(wire[44:]))
	n2 := int(le.Uint16(wire[46:]))
	rest := wire[reqHeaderSize:]
	if len(rest) < n1+n2 {
		return fmt.Errorf("fuse: truncated names: %w", fsapi.ErrInvalid)
	}
	*r = Request{
		Op:     Opcode(le.Uint32(wire[0:])),
		Unique: le.Uint64(wire[4:]),
		Nodeid: le.Uint64(wire[12:]),
		Target: le.Uint64(wire[20:]),
		Off:    int64(le.Uint64(wire[28:])),
		Size:   le.Uint32(wire[36:]),
		Flags:  le.Uint32(wire[40:]),
		Name:   string(rest[:n1]),
		Name2:  string(rest[n1 : n1+n2]),
	}
	if len(rest) > n1+n2 {
		r.Data = rest[n1+n2:]
	}
	return nil
}

const repHeaderSize = 8 + 4 + 8 + 8 + 4 + 1 + 3 // unique, errno, attr, pad

// encodeReply marshals p into buf's storage (grown if needed) and
// returns the wire bytes. The whole header is rewritten, pad included.
func encodeReply(buf []byte, p *Reply) []byte {
	buf = sized(buf, repHeaderSize+len(p.Data))
	le := binary.LittleEndian
	le.PutUint64(buf[0:], p.Unique)
	le.PutUint32(buf[8:], uint32(p.Errno))
	le.PutUint64(buf[12:], p.Attr.Ino)
	le.PutUint64(buf[20:], uint64(p.Attr.Size))
	le.PutUint32(buf[28:], p.Attr.Nlink)
	buf[32] = p.Attr.Kind
	clear(buf[33:repHeaderSize])
	copy(buf[repHeaderSize:], p.Data)
	return buf
}

// decodeReply unmarshals wire into p in place: p.Data aliases wire and
// is valid only as long as wire is.
func decodeReply(wire []byte, p *Reply) error {
	if len(wire) < repHeaderSize {
		return fmt.Errorf("fuse: short reply (%d bytes): %w", len(wire), fsapi.ErrInvalid)
	}
	le := binary.LittleEndian
	*p = Reply{
		Unique: le.Uint64(wire[0:]),
		Errno:  int32(le.Uint32(wire[8:])),
		Attr: WireAttr{
			Ino:   le.Uint64(wire[12:]),
			Size:  int64(le.Uint64(wire[20:])),
			Nlink: le.Uint32(wire[28:]),
			Kind:  wire[32],
		},
	}
	if len(wire) > repHeaderSize {
		p.Data = wire[repHeaderSize:]
	}
	return nil
}

// Errno codes carried on the wire, mapped to/from fsapi errors.
var errnoTable = []struct {
	code int32
	err  error
}{
	{2, fsapi.ErrNotExist}, {17, fsapi.ErrExist}, {20, fsapi.ErrNotDir},
	{21, fsapi.ErrIsDir}, {39, fsapi.ErrNotEmpty}, {28, fsapi.ErrNoSpace},
	{36, fsapi.ErrNameTooLong}, {22, fsapi.ErrInvalid}, {9, fsapi.ErrBadFD},
	{27, fsapi.ErrFileTooBig}, {30, fsapi.ErrReadOnly}, {95, fsapi.ErrNotSupported},
	{16, fsapi.ErrBusy}, {5, fsapi.ErrIO}, {116, fsapi.ErrStale}, {1, fsapi.ErrPerm},
	{31, fsapi.ErrTooManyLinks}, {117, fsapi.ErrCorrupt},
}

// ErrnoFor maps an error to its wire code (EIO for unknown errors).
func ErrnoFor(err error) int32 {
	if err == nil {
		return 0
	}
	for _, e := range errnoTable {
		if errorIs(err, e.err) {
			return e.code
		}
	}
	return 5 // EIO
}

// ErrFromErrno maps a wire code back to the sentinel error.
func ErrFromErrno(code int32) error {
	if code == 0 {
		return nil
	}
	for _, e := range errnoTable {
		if e.code == code {
			return e.err
		}
	}
	return fsapi.ErrIO
}

// errorIs is errors.Is without importing errors in the hot path.
func errorIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
