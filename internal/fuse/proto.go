// Package fuse simulates the FUSE transport the paper uses as its
// userspace baseline: a kernel driver that turns VFS operations into
// requests, a userspace daemon that serves them, and a userspace storage
// layer doing O_DIRECT block I/O on the "disk file".
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
// measures. On the host a round trip is a priced call: the driver hands
// the daemon a Request value and gets a Reply value back, and the copies
// are charged for the bytes each message would occupy on /dev/fuse
// (wireLen) without the bytes being produced. Whole pages are not copied
// either: a WRITE carries the page buffers the kernel gave up to
// write-back, which the daemon's xv6 logs and installs by reference
// (core.WriteRun, bentoks.Disk.BAdopt and BClone, Device.SubmitOwned),
// and a READ of a whole page the daemon can lend returns its cached
// block as the page (Driver.LendPage). What is left of the wire is kept:
// a READ that is not lent is produced in the daemon's buffer and copied
// into the caller's page, a WRITE for a file system without the
// page-vector write is flattened into the daemon's buffer, and an error
// crosses as its errno, so the kernel sees only the sentinel. In steady
// state one round trip allocates nothing.
//
// There is no host lock: the daemon's single-threadedness is modelled in
// virtual time (Session.freeAt), and on the host a round trip runs start
// to finish on the one task the scheduler has admitted, which owns the
// Session's payload buffer while it runs. The ownership rules:
//
//  1. The payload buffer is valid only while the round trip runs.
//     Nothing that aliases it — a flattened WRITE's data, a copied READ's
//     Reply.Data — may be retained past the Driver method that made the
//     round trip: READ payloads are copied into the caller's page. A lent
//     READ's Reply.Data is an immutable view instead, and becomes the
//     page.
//  2. A round trip is not re-entrant: the hosted file system reaches
//     storage through UserDisk, never back through the Driver.
//  3. A WRITE hands the daemon exactly total bytes — the first total
//     bytes of its whole pages, or, flattened, copied from the pages and
//     zero-filled where they run out — never bytes left over from an
//     earlier, larger request.
//  4. UserDisk is daemon-private: every call runs inside a round trip,
//     or at mount before the Driver exists. That is what makes recycling
//     an evicted block safe against BReadDirect's unpinned Peek.
package fuse

import (
	"errors"
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

// Request is one FUSE request. Nodeid and Target carry inode numbers;
// Name and Name2 carry path components; Off, Size carry I/O geometry — a
// WRITE's payload is the first Size bytes of Pages, the page buffers the
// kernel gave up to write-back.
type Request struct {
	Op     Opcode
	Nodeid uint64
	Target uint64
	Off    int64
	Size   uint32
	Flags  uint32
	Name   string
	Name2  string
	Pages  [][]byte

	// lend asks for a READ of one whole page by reference: the reply
	// carries the daemon's view of the page (core.PageLender) instead of
	// a copy in the payload buffer.
	lend bool
}

// Reply is the daemon's answer. Errno is 0 on success, and a failed
// request's reply carries the errno and nothing else. Attr answers the
// requests that return an inode's attributes, Written a WRITE, Data a
// READ (in the session's payload buffer, or a lent view), Ents a READDIR
// and FSStat a STATFS.
type Reply struct {
	Errno   int32
	Attr    fsapi.Stat
	Written int
	Data    []byte
	Ents    []fsapi.DirEntry
	FSStat  fsapi.FSStat
}

// The sizes the messages would have on /dev/fuse, in bytes.
const (
	reqHeaderSize    = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 2 + 2 // opcode, unique, nodeid, target, off, size, flags, name lengths
	repHeaderSize    = 8 + 4 + 8 + 8 + 4 + 1 + 3         // unique, errno, attr (ino, size, nlink, kind), pad
	direntHeaderSize = 8 + 1 + 2                         // ino, type, name length
	statFSSize       = 4 * 8                             // four counters
)

// wireLen is the size of req on the wire when rep is nil, and otherwise
// the size of rep as the answer to req: a fixed header, then the names
// and a WRITE's payload one way, and a successful READ's data, READDIR's
// entries or STATFS's counters the other. These are the bytes the
// transport charges copies for and counts as fuse_bytes_in/out.
func wireLen(req *Request, rep *Reply) int {
	if rep == nil {
		n := reqHeaderSize + len(req.Name) + len(req.Name2)
		if req.Op == OpWrite {
			n += int(req.Size)
		}
		return n
	}
	n := repHeaderSize
	if rep.Errno != 0 {
		return n
	}
	switch req.Op {
	case OpRead:
		n += len(rep.Data)
	case OpReadDir:
		for _, e := range rep.Ents {
			n += direntHeaderSize + len(e.Name)
		}
	case OpStatFS:
		n += statFSSize
	}
	return n
}

// sized returns buf resliced to n bytes, reallocating only when its
// capacity is too small. The contents are unspecified: every caller
// overwrites all n bytes.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
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
		if errors.Is(err, e.err) {
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
