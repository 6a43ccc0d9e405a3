package fuse

import (
	"bytes"
	"fmt"
	"testing"
)

func TestProtoRequestRoundTrip(t *testing.T) {
	req := &Request{
		Op: OpRename, Unique: 42, Nodeid: 7, Target: 9,
		Off: 1 << 40, Size: 4096, Flags: 3,
		Name: "old name", Name2: "new name", Data: []byte{1, 2, 3},
	}
	var got Request
	if err := decodeRequest(encodeRequest(nil, req, nil, 0), &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Unique != req.Unique || got.Nodeid != req.Nodeid ||
		got.Target != req.Target || got.Off != req.Off || got.Size != req.Size ||
		got.Flags != req.Flags || got.Name != req.Name || got.Name2 != req.Name2 ||
		!bytes.Equal(got.Data, req.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, req)
	}
}

func TestProtoReplyRoundTrip(t *testing.T) {
	rep := &Reply{
		Unique: 9, Errno: 2,
		Attr: WireAttr{Ino: 12, Size: 12345, Nlink: 3, Kind: 2},
		Data: []byte("payload"),
	}
	var got Reply
	if err := decodeReply(encodeReply(nil, rep), &got); err != nil {
		t.Fatal(err)
	}
	if got.Unique != 9 || got.Errno != 2 || got.Attr != rep.Attr || !bytes.Equal(got.Data, rep.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestProtoShortBuffersRejected(t *testing.T) {
	if err := decodeRequest([]byte{1, 2, 3}, new(Request)); err == nil {
		t.Fatal("short request accepted")
	}
	// A header whose name lengths run past the end of the wire.
	wire := encodeRequest(nil, &Request{Op: OpLookup, Name: "name"}, nil, 0)
	if err := decodeRequest(wire[:len(wire)-1], new(Request)); err == nil {
		t.Fatal("truncated names accepted")
	}
	if err := decodeReply([]byte{1}, new(Reply)); err == nil {
		t.Fatal("short reply accepted")
	}
}

// TestProtoDecodeInPlace: the decoded payloads alias the wire (that is
// the zero-copy contract the Session's gate protects), the names do not.
func TestProtoDecodeInPlace(t *testing.T) {
	wire := encodeRequest(nil, &Request{Op: OpWrite, Name: "n", Data: []byte{1, 2, 3}}, nil, 0)
	var req Request
	if err := decodeRequest(wire, &req); err != nil {
		t.Fatal(err)
	}
	if &req.Data[0] != &wire[len(wire)-3] {
		t.Fatal("Request.Data does not alias the wire")
	}
	clear(wire)
	if req.Name != "n" {
		t.Fatalf("Request.Name aliases the wire: %q", req.Name)
	}

	rwire := encodeReply(nil, &Reply{Data: []byte("xyz")})
	var rep Reply
	if err := decodeReply(rwire, &rep); err != nil {
		t.Fatal(err)
	}
	if &rep.Data[0] != &rwire[repHeaderSize] {
		t.Fatal("Reply.Data does not alias the wire")
	}
}

// TestProtoEncodeReusedBuffer pins rules 3 and 4 at the codec: encoding
// into a buffer that held a larger message leaves none of it behind.
func TestProtoEncodeReusedBuffer(t *testing.T) {
	dirty := func() []byte { return bytes.Repeat([]byte{0xAA}, 1<<10) }

	// A gathered WRITE is exactly total bytes: the pages' bytes in
	// order, clipped to total, zero-filled where the pages run out.
	pages := [][]byte{{1, 2, 3}, {4, 5}}
	for _, tc := range []struct {
		total int
		want  []byte
	}{
		{4, []byte{1, 2, 3, 4}},
		{5, []byte{1, 2, 3, 4, 5}},
		{9, []byte{1, 2, 3, 4, 5, 0, 0, 0, 0}},
		{0, nil},
	} {
		wire := encodeRequest(dirty(), &Request{Op: OpWrite, Name: "f"}, pages, tc.total)
		if want := reqHeaderSize + 1 + tc.total; len(wire) != want {
			t.Fatalf("total %d: wire is %d bytes, want %d", tc.total, len(wire), want)
		}
		var req Request
		if err := decodeRequest(wire, &req); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(req.Data, tc.want) {
			t.Fatalf("total %d: payload %v, want %v", tc.total, req.Data, tc.want)
		}
	}

	// A reply header is rewritten whole, pad bytes included, and an
	// empty reply is the header alone.
	wire := encodeReply(dirty(), &Reply{Unique: 1, Errno: 2})
	fresh := encodeReply(nil, &Reply{Unique: 1, Errno: 2})
	if !bytes.Equal(wire, fresh) {
		t.Fatalf("reply into a reused buffer:\n got %x\nwant %x", wire, fresh)
	}
	if len(wire) != repHeaderSize {
		t.Fatalf("empty reply is %d bytes, want the %d-byte header", len(wire), repHeaderSize)
	}
}

func TestOpcodeString(t *testing.T) {
	want := map[Opcode]string{
		OpLookup: "LOOKUP", OpGetAttr: "GETATTR", OpSetAttr: "SETATTR",
		OpCreate: "CREATE", OpMkdir: "MKDIR", OpUnlink: "UNLINK",
		OpRmdir: "RMDIR", OpRename: "RENAME", OpLink: "LINK",
		OpOpen: "OPEN", OpRelease: "RELEASE", OpRead: "READ",
		OpWrite: "WRITE", OpFsync: "FSYNC", OpReadDir: "READDIR",
		OpStatFS: "STATFS", OpSyncFS: "SYNCFS", OpInit: "INIT", OpDestroy: "DESTROY",
	}
	if len(want) != int(OpDestroy) {
		t.Fatalf("table covers %d opcodes, the protocol has %d", len(want), OpDestroy)
	}
	for op := OpLookup; op <= OpDestroy; op++ {
		if got := op.String(); got != want[op] {
			t.Errorf("Opcode(%d).String() = %q, want %q", uint32(op), got, want[op])
		}
		if got := opTraceName(op); got != want[op] {
			t.Errorf("opTraceName(%d) = %q, want %q", uint32(op), got, want[op])
		}
	}
	for _, op := range []Opcode{0, OpDestroy + 1, 1 << 31} {
		if got, want := op.String(), fmt.Sprintf("OP(%d)", uint32(op)); got != want {
			t.Errorf("unknown opcode: String() = %q, want %q", got, want)
		}
		if got := opTraceName(op); got != "OP?" {
			t.Errorf("unknown opcode: opTraceName = %q, want OP?", got)
		}
	}
}
