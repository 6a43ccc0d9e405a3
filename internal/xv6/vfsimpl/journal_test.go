package vfsimpl_test

import (
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// TestFailedCommitReleasesBuffers fails one device write under a commit
// of each journal — the C-Kernel's per-operation log and ext4's compound
// one — at a log slot, the commit record and a home block (the inode
// table), and requires the commit to give back every buffer it held:
// once the fault clears and the file system syncs, each resident buffer
// has no reference but the one this test takes. A held buffer can never
// be evicted, and nothing else reports it.
func TestFailedCommitReleasesBuffers(t *testing.T) {
	type mounted interface {
		BufferCache() *kernel.BufferCache
		Super() layout.Superblock
	}
	for _, fsType := range []kernel.FileSystemType{vfsimpl.Type{}, ext4.Type{}} {
		for _, c := range []struct {
			name string
			blk  func(layout.Superblock) int
		}{
			{"log-slot", func(sb layout.Superblock) int { return int(sb.LogStart) + 1 }},
			{"log-header", func(sb layout.Superblock) int { return int(sb.LogStart) }},
			{"home", func(sb layout.Superblock) int { return int(sb.InodeStart) }},
		} {
			t.Run(fsType.Name()+"/"+c.name, func(t *testing.T) {
				model := costmodel.Fast()
				k := kernel.New(model)
				dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model})
				task := k.NewTask("test")
				var err error
				if _, ok := fsType.(ext4.Type); ok {
					err = ext4.Mkfs(task, dev, 512)
				} else {
					_, err = layout.Mkfs(task.Clk, dev, 512)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Register(fsType); err != nil {
					t.Fatal(err)
				}
				m, err := k.Mount(task, fsType.Name(), "/mnt", dev)
				if err != nil {
					t.Fatal(err)
				}
				fs := m.FS().(mounted)
				dev.InjectWriteError(c.blk(fs.Super()))
				// The per-operation log's callers drop a commit's error
				// (they defer endOp), so only ext4 reports the fault here;
				// both must release what the failed commit held.
				_ = m.WriteFile(task, "/f", []byte("payload"))
				_ = m.Sync(task)
				dev.ClearFaults()
				if err := m.Sync(task); err != nil {
					t.Fatal(err)
				}
				bc := fs.BufferCache()
				for _, blk := range bc.ResidentBlocks() {
					bh, err := bc.Get(task, blk)
					if err != nil {
						t.Fatal(err)
					}
					if n := bh.Refs(); n != 1 {
						t.Errorf("block %d holds %d reference(s) after a failed commit, want none but ours", blk, n-1)
					}
					if err := bh.Release(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}
