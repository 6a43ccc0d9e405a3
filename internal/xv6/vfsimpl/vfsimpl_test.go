package vfsimpl_test

import (
	"bytes"
	"strings"
	"testing"

	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/journaltest"
)

// The file system's own behaviour is tested on every variant in
// bentoimpl's tables; these are smoke tests and the tests of the
// kernel.FileSystem adapter itself.

func TestVFSBaselineBasics(t *testing.T) {
	r := journaltest.New(t, harness.VariantCKernel, harness.Published(harness.VariantCKernel))
	want := []byte("the C baseline, in Go")
	if err := r.M.WriteFile(r.Task, "/f", want); err != nil {
		t.Fatal(err)
	}
	got, err := r.M.ReadFile(r.Task, "/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%q %v", got, err)
	}
	r.Fsck(t)
}

// TestVFSBaselineIsNotBatchWriter: the C-Kernel writes back one page per
// ->writepage call.
func TestVFSBaselineIsNotBatchWriter(t *testing.T) {
	r := journaltest.New(t, harness.VariantCKernel, harness.Published(harness.VariantCKernel))
	if _, ok := r.M.FS().(kernel.BatchWriter); ok {
		t.Fatal("the C baseline must NOT implement writepages; that is Bento's advantage in Figure 4")
	}
}

func TestVFSBaselineDirsLinksRename(t *testing.T) {
	r := journaltest.New(t, harness.VariantCKernel, harness.Published(harness.VariantCKernel))
	m, task := r.M, r.Task
	if err := m.Mkdir(task, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir(task, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(task, "/a/b/f", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if err := m.Link(task, "/a/b/f", "/a/link"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/a/b", "/c"); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/c/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("%q %v", got, err)
	}
	if err := m.Unlink(task, "/a/link"); err != nil {
		t.Fatal(err)
	}
	r.Fsck(t)
}

// TestUnmountReportsHeldBuffers requires the C-Kernel's and ext4's
// Unmount to fail while a buffer is still referenced, naming how many.
func TestUnmountReportsHeldBuffers(t *testing.T) {
	journaltest.Run(t, []journaltest.Row{
		onCKernel("xv6vfs", noBarriers), onExt4("ext4", barriers),
	}, func(t *testing.T, v string, mc harness.MountConfig) {
		r := journaltest.New(t, v, mc)
		if _, err := r.BufferCache().Get(r.Task, int(r.SB.InodeStart)); err != nil {
			t.Fatal(err)
		}
		err := r.K.Unmount(r.Task, "/")
		if err == nil || !strings.Contains(err.Error(), "1 buffer(s) still referenced") {
			t.Fatalf("Unmount with a buffer held returned %v, want it to name 1 held buffer", err)
		}
	})
}
