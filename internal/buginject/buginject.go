// Package buginject reproduces the paper's §2.1 claim experimentally:
// it injects each Table 1 bug class into file-system code running on the
// Bento framework and records whether the framework's safety contract
// (bentoks' runtime rendering of Rust's compile-time checks) catches it.
//
// The paper's number — 93% of low-level bugs prevented, deadlocks being
// the 7% that remain — maps here to: every memory/type bug class is
// detected and contained; deadlocks are not prevented. The framework's
// lock-order check detects the inversion that can deadlock, but nothing
// in the types stops the code from taking it.
//
// This package injects bugs into the file-system code and asks whether
// the framework contains them. Its sibling, internal/crashtort, injects
// failures into the environment instead — power cuts at every journal
// boundary of the block device — and asks whether recovery holds; both
// ride the same deterministic kernel/device simulation, so every
// reported failure replays exactly. See docs/upgrade-and-crash.md for
// the crash side.
package buginject

import (
	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/kernel"
)

// BugKind enumerates the injectable bug classes (the Table 1 taxonomy
// reduced to what has a behavioural analogue in the simulation).
type BugKind string

// Injectable bug classes.
const (
	UseAfterFree   BugKind = "use-after-free"
	DoubleFree     BugKind = "double-free"
	MissingFree    BugKind = "missing-free"
	OutOfBounds    BugKind = "out-of-bounds"
	ForgedPointer  BugKind = "forged-pointer" // casting an integer to a kernel object
	DeadlockBug    BugKind = "deadlock"
	UncheckedError BugKind = "unchecked-error-value"
)

// AllKinds lists every injectable class.
var AllKinds = []BugKind{UseAfterFree, DoubleFree, MissingFree, OutOfBounds, ForgedPointer, DeadlockBug, UncheckedError}

// Outcome describes what happened when a bug class ran under the
// framework.
type Outcome struct {
	Kind BugKind
	// Caught is true when the framework detected and contained the bug
	// (the access failed with a reported violation instead of corrupting
	// kernel state).
	Caught bool
	// Detail describes the detection (or why the class escapes).
	Detail string
}

// Inject runs the bug class against a fresh framework instance and
// reports the outcome. Memory and type bugs exercise real bentoks
// wrappers; the deadlock class takes two semaphores in one order and
// then the other, and reports what the lock-order check saw.
func Inject(kind BugKind) Outcome {
	model := costmodel.Fast()
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model})
	k := kernel.New(model)
	task := k.NewTask("buggy-fs")
	bc := kernel.NewBufferCache(dev, model, 16)
	sb := bentoks.NewSuperBlock(bc, bentoks.NewChecker())

	switch kind {
	case UseAfterFree:
		bh, err := sb.BRead(task, 1)
		if err != nil {
			return Outcome{kind, false, err.Error()}
		}
		_ = bh.Release()
		if _, err := bh.Data(); err != nil {
			if v, ok := bentoks.IsViolation(err); ok {
				return Outcome{kind, true, "access rejected: " + v.Error()}
			}
		}
		return Outcome{kind, false, "released buffer was readable"}

	case DoubleFree:
		bh, err := sb.BRead(task, 2)
		if err != nil {
			return Outcome{kind, false, err.Error()}
		}
		_ = bh.Release()
		if err := bh.Release(); err != nil {
			if v, ok := bentoks.IsViolation(err); ok {
				return Outcome{kind, true, "second release rejected: " + v.Error()}
			}
		}
		return Outcome{kind, false, "double release went through"}

	case MissingFree:
		if _, err := sb.BRead(task, 3); err != nil { // never released
			return Outcome{kind, false, err.Error()}
		}
		if n := sb.Checker().CheckLeaks(); n == 1 {
			return Outcome{kind, true, "leak reported at operation boundary"}
		}
		return Outcome{kind, false, "leak went unnoticed"}

	case OutOfBounds:
		bh, err := sb.BRead(task, 4)
		if err != nil {
			return Outcome{kind, false, err.Error()}
		}
		defer bh.Release()
		if _, err := bh.Slice(sb.BlockSize()-4, 64); err != nil {
			if v, ok := bentoks.IsViolation(err); ok {
				return Outcome{kind, true, "wild access rejected: " + v.Error()}
			}
		}
		return Outcome{kind, false, "out-of-bounds slice returned"}

	case ForgedPointer:
		forged := &bentoks.SuperBlock{} // fabricated capability
		if _, err := forged.BRead(task, 0); err != nil {
			if v, ok := bentoks.IsViolation(err); ok {
				return Outcome{kind, true, "forged capability rejected: " + v.Error()}
			}
		}
		return Outcome{kind, false, "forged capability worked"}

	case UncheckedError:
		// Interpreting an error value as valid data: the typed API makes
		// the error a separate return the caller must branch on; using
		// the data half after an error yields a nil buffer, not a
		// misinterpreted errno-as-pointer.
		if _, err := sb.BRead(task, 9999); err != nil { // out of range
			return Outcome{kind, true, "error is a distinct typed value; no errno-as-pointer confusion"}
		}
		return Outcome{kind, false, "error value usable as data"}

	case DeadlockBug:
		// A→B, then B→A, in one task. Two tasks running these sections
		// concurrently can each hold one semaphore and wait forever for
		// the other; run one after the other nothing blocks, and the
		// second order is reported against the first.
		a := bentoks.NewSemaphore(sb.Checker())
		b := bentoks.NewSemaphore(sb.Checker())
		// Only the last section's second Acquire can report; every
		// other call here is clean by construction.
		_ = a.Acquire()
		_ = b.Acquire()
		_ = b.Release()
		_ = a.Release()
		_ = b.Acquire()
		err := a.Acquire()
		_ = a.Release()
		_ = b.Release()
		if v, ok := bentoks.IsViolation(err); ok {
			// Detected, not prevented: the paper's remaining 7%.
			return Outcome{kind, false, "detected by lock-order check: " + v.Error()}
		}
		return Outcome{kind, false, "lock-order inversion went unnoticed"}
	}
	return Outcome{kind, false, "unknown bug kind"}
}

// RunAll injects every class and returns the outcomes.
func RunAll() []Outcome {
	out := make([]Outcome, 0, len(AllKinds))
	for _, k := range AllKinds {
		out = append(out, Inject(k))
	}
	return out
}
