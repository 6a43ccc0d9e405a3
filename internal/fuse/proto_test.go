package fuse

import (
	"fmt"
	"testing"
)

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
