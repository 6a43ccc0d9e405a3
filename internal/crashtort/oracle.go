package crashtort

import (
	"fmt"
	"path"

	"bento/internal/blockdev"
	"bento/internal/kernel"
	"bento/internal/oplist"
)

// oracle tracks the logical guarantees the workload has earned so far.
// Promotion happens only when a durability call returns: a successful
// FSync guarantees that file (and its ancestor directories); a
// successful Sync guarantees everything written so far and makes every
// pending deletion permanent. Anything not promoted may legally vanish
// at the crash — the tree walk still requires it to be readable if it
// survives.
type oracle struct {
	cur      map[string]string   // current logical file contents
	curDirs  map[string]struct{} // directories created so far
	want     map[string]string   // guaranteed contents after recovery
	wantDirs map[string]struct{} // directories guaranteed to exist
	deleted  map[string]struct{} // unlinked/renamed-away, not yet covered by a Sync
	gone     map[string]struct{} // guaranteed absent after recovery
}

func newOracle() *oracle {
	return &oracle{
		cur:      map[string]string{},
		curDirs:  map[string]struct{}{},
		want:     map[string]string{},
		wantDirs: map[string]struct{}{},
		deleted:  map[string]struct{}{},
		gone:     map[string]struct{}{},
	}
}

// promoteDirs marks p's ancestor directories guaranteed.
func (o *oracle) promoteDirs(p string) {
	for d := path.Dir(p); ; d = path.Dir(d) {
		o.wantDirs[d] = struct{}{}
		if d == "/" {
			return
		}
	}
}

// step applies op's oracle rule. Before the call, op voids the
// guarantees of the names it leaves in flux, since a power cut in the
// middle of it leaves their on-disk outcome undecided. Only if the call
// succeeded with the power on (earned) does op add what it justifies.
func (o *oracle) step(op oplist.Op, earned bool) {
	switch op.Kind {
	case oplist.Put, oplist.Rm:
		delete(o.want, op.Path)
	case oplist.Mv:
		delete(o.want, op.Path)
		delete(o.want, op.To)
	}
	if !earned {
		return
	}
	switch op.Kind {
	case oplist.Put:
		// Without a durability call the new contents may or may not
		// survive a crash.
		o.cur[op.Path] = string(oplist.Content(op.Tag, 0, op.N))
		delete(o.deleted, op.Path)
		delete(o.gone, op.Path)
	case oplist.FSync:
		// The file and its ancestor directories survive any crash.
		o.want[op.Path] = o.cur[op.Path]
		o.promoteDirs(op.Path)
	case oplist.Mkdir:
		o.curDirs[op.Path] = struct{}{}
	case oplist.Rm:
		// Durably gone only once a Sync covers it.
		delete(o.cur, op.Path)
		o.deleted[op.Path] = struct{}{}
	case oplist.Mv:
		// A crash before the covering Sync may show either name.
		o.cur[op.To] = o.cur[op.Path]
		delete(o.cur, op.Path)
		o.deleted[op.Path] = struct{}{}
		delete(o.deleted, op.To)
		delete(o.gone, op.To)
	case oplist.Sync:
		// Everything current is guaranteed, every pending deletion
		// permanent.
		for p, data := range o.cur {
			o.want[p] = data
			o.promoteDirs(p)
		}
		for d := range o.curDirs {
			o.wantDirs[d] = struct{}{}
			o.promoteDirs(d)
		}
		for p := range o.deleted {
			o.gone[p] = struct{}{}
			delete(o.deleted, p)
		}
	default:
		panic("crashtort: no oracle rule for " + op.Kind.String())
	}
}

// workload is the fixed torture workload. It exercises every journal
// boundary class the variants have — journaled metadata writes, data
// writes, the commit record, FLUSH barriers around it, and the install
// that follows — via creates, overwrites, unlinks, renames, fsyncs and
// a full sync, in a fixed order so the device command stream (and hence
// the crash-point coordinate system) is identical on every run.
var workload = mustParse(
	"mkdir /d0",
	"put /a 2048 a", "fsync /a",
	"put /d0/b 1024 b",
	"put /d0/c 2048 c", "fsync /d0/c",
	"put /a 3072 A", "fsync /a", // synced overwrite
	"rm /d0/b",
	"mkdir /d1",
	"put /d1/e 1024 e",
	"sync",
	"put /d1/f 2048 f", "fsync /d1/f",
	"mv /d0/c /d0/c2",
	"sync",
	"put /g 3072 g",
)

func mustParse(lines ...string) []oplist.Op {
	ops := make([]oplist.Op, len(lines))
	for i, l := range lines {
		var err error
		if ops[i], err = oplist.Parse(l); err != nil {
			panic(err)
		}
	}
	return ops
}

// script runs ops on m and applies each op's oracle rule. A real power
// loss halts the machine, so the workload ends at the crash point: Run
// stops after the op at which the device reports the power out, and
// that op earns no guarantee, whatever it returned. (Group-commit paths
// may absorb a device error and report success; physically that
// success was never observed.) A call whose final device command
// coincides with the cut is treated the same way — conservative, but
// sound: the oracle then only under-claims, and recovery, the tree walk,
// and fsck still verify that crash point in full. script returns
// blockdev.ErrPowerLoss once the power is out, and an op's failure with
// the power on as an error.
func script(m *kernel.Mount, t *kernel.Task, dev *blockdev.Device, o *oracle, ops []oplist.Op) error {
	res := oplist.Run(m, t, ops, dev.PowerOut)
	for i, op := range ops[:len(res)] {
		cut := i == len(res)-1 && dev.PowerOut()
		o.step(op, !cut && res[i] == "ok")
		if cut {
			return blockdev.ErrPowerLoss
		}
		if res[i] != "ok" {
			return fmt.Errorf("%v: %s", op, res[i])
		}
	}
	return nil
}
