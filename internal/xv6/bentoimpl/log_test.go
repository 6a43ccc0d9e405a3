package bentoimpl_test

import (
	"testing"

	"bento/internal/core"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// TestFailedCommitReleasesBuffers fails one device write under a journal
// commit — a log slot (step 1), the log header (step 2) and a home block
// (step 3, the inode table) — and requires the commit to give back every
// buffer it held: once the fault clears, Unmount succeeds and the
// ownership checker has recorded nothing. Before the fix each failed
// step returned with its buffers still held, and Unmount reported them
// as leaked.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	for _, c := range []struct {
		name string
		blk  func(layout.Superblock) int
	}{
		{"log-slot", func(sb layout.Superblock) int { return int(sb.LogStart) + 1 }},
		{"log-header", func(sb layout.Superblock) int { return int(sb.LogStart) }},
		{"home", func(sb layout.Superblock) int { return int(sb.InodeStart) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, 4096, bentoimpl.PolicyFlush)
			shim := e.m.FS().(*core.BentoFS)
			e.dev.InjectWriteError(c.blk(shim.Inner().(*bentoimpl.FS).Super()))
			werr := e.m.WriteFile(e.task, "/f", []byte("payload"))
			serr := e.m.Sync(e.task)
			if werr == nil && serr == nil {
				t.Fatal("no operation saw the injected write error")
			}
			e.dev.ClearFaults()
			if err := e.k.Unmount(e.task, "/mnt"); err != nil {
				t.Fatalf("Unmount after a failed commit: %v", err)
			}
			if v := shim.SuperBlock().Checker().Violations(); len(v) != 0 {
				t.Fatalf("ownership violations after a failed commit: %v", v)
			}
		})
	}
}
