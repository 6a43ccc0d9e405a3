package harness_test

import (
	"fmt"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/ext4"
	"bento/internal/fsapi"
	"bento/internal/fuse"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/vfsimpl"
)

// TestMountConfigHasOneMeaning checks that each MountConfig field means
// the same on every variant, whatever the file system calls it: an fsync
// issues a FLUSH exactly when Barriers is set, and file data goes around
// an in-kernel variant's buffer cache exactly when Bypass is set (FUSE's
// daemon never bypasses).
func TestMountConfigHasOneMeaning(t *testing.T) {
	for _, v := range harness.AllVariants {
		for _, mc := range []harness.MountConfig{{}, {Barriers: true}, {Bypass: true}, {Barriers: true, Bypass: true}} {
			t.Run(fmt.Sprintf("%s/barriers=%v/bypass=%v", v, mc.Barriers, mc.Bypass), func(t *testing.T) {
				model := costmodel.Fast()
				k := kernel.New(model)
				dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
				task := k.NewTask("test")
				m, err := harness.Mount(k, task, dev, v, mc, 512)
				if err != nil {
					t.Fatal(err)
				}
				f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.OWronly)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(task, make([]byte, 64<<10)); err != nil {
					t.Fatal(err)
				}
				flushes := dev.Stats().Flushes
				if err := f.FSync(task); err != nil {
					t.Fatal(err)
				}
				if flushed := dev.Stats().Flushes > flushes; flushed != mc.Barriers {
					t.Errorf("fsync issued a FLUSH: %v, want %v", flushed, mc.Barriers)
				}

				var bc *kernel.BufferCache
				switch fs := m.FS().(type) {
				case *core.BentoFS:
					bc = fs.SuperBlock().BufferCache()
				case *vfsimpl.FS:
					bc = fs.BufferCache()
				case *ext4.FS:
					bc = fs.BufferCache()
				case *fuse.Driver:
					if fs.Session().FS().(*bentoimpl.FS).Config().DataBypass {
						t.Error("the FUSE daemon bypasses its cache")
					}
					return
				default:
					t.Fatalf("unexpected file system %T", fs)
				}
				if direct := bc.Stats().DirectWrites > 0; direct != mc.Bypass {
					t.Errorf("fsync'd file data went around the buffer cache: %v, want %v", direct, mc.Bypass)
				}
			})
		}
	}
}

// TestPublishedMountConfig pins the benchmarked configuration: only FUSE
// orders its commits with FLUSH barriers, and every variant asks for the
// bypass.
func TestPublishedMountConfig(t *testing.T) {
	for _, v := range harness.AllVariants {
		want := harness.MountConfig{Barriers: v == harness.VariantFUSE, Bypass: true}
		if got := harness.Published(v); got != want {
			t.Errorf("Published(%s) = %+v, want %+v", v, got, want)
		}
	}
}

// TestOnlyExt4BatchesWriteBack pins the write-back path of the two mounts
// of vfsimpl's file system: ext4's is a kernel.BatchWriter (batched
// ->writepages), the C-Kernel's is not — its one-page ->writepage is the
// paper's Figure 4 mechanism.
func TestOnlyExt4BatchesWriteBack(t *testing.T) {
	for _, v := range []string{harness.VariantCKernel, harness.VariantExt4} {
		model := costmodel.Fast()
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 4096, Model: model})
		m, err := harness.Mount(k, k.NewTask("mount"), dev, v, harness.Published(v), 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, batched := m.FS().(kernel.BatchWriter); batched != (v == harness.VariantExt4) {
			t.Errorf("%s mount (%T) is a kernel.BatchWriter: %v", v, m.FS(), batched)
		}
	}
}
