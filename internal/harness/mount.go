package harness

import (
	"fmt"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/ext4"
	"bento/internal/fuse"
	"bento/internal/kernel"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// MountConfig is everything a variant mount decides besides the variant
// itself, with one meaning for every file system. Mount maps each field
// onto the file system's own spelling of it.
type MountConfig struct {
	// Barriers orders every journal commit with FLUSH barriers, so a
	// returned fsync survives a power cut that drops the device's volatile
	// write cache. Off, commits rely on completed writes alone.
	Barriers bool
	// Bypass routes regular-file contents around the in-kernel file
	// systems' buffer caches: data is cached once, in the page cache, and
	// the journal carries metadata only. FUSE's daemon never bypasses — a
	// userspace file system cannot DMA into kernel pages, and
	// bentoimpl.FS.Init refuses DataBypass on its disk.
	Bypass bool
}

// Published returns the MountConfig the benchmark matrix mounts variant
// with (the RowBentoNoBypass cells then turn Bypass off).
func Published(variant string) MountConfig {
	// The in-kernel file systems rely on completed writes rather than
	// FLUSH barriers; only FUSE must pay fsync-to-FLUSH, having no other
	// ordering primitive — the asymmetry the paper measures.
	return MountConfig{Barriers: variant == VariantFUSE, Bypass: true}
}

// Mount registers variant with k under mc and mounts it at "/" over dev.
// A non-zero ninodes first formats dev with the variant's mkfs and an
// inode table that size; zero mounts the image already on dev (journal
// recovery runs inside the mount). Mount attaches no background I/O.
//
// It is the one place outside benchmark/ that builds a file system's
// config (TestOneMountConfigSite), so what the benchmark measures and
// what the crash fuzzer sweeps cannot drift apart.
func Mount(k *kernel.Kernel, task *kernel.Task, dev *blockdev.Device, variant string, mc MountConfig, ninodes uint32) (*kernel.Mount, error) {
	pol := bentoimpl.PolicyWriteBack
	if mc.Barriers {
		pol = bentoimpl.PolicyFlush
	}
	var fstype string
	var err error
	switch variant {
	case VariantBento:
		fstype = "xv6"
		err = bentoimpl.RegisterWith(k, fstype, bentoimpl.Config{Policy: pol, DataBypass: mc.Bypass})
	case VariantCKernel:
		fstype = "xv6vfs"
		err = k.Register(vfsimpl.Type{Cfg: vfsimpl.Config{FlushCommits: mc.Barriers, DataBypass: mc.Bypass}})
	case VariantFUSE:
		// The daemon hosts the same xv6 code as the Bento variant, over
		// its user-level cache.
		fstype = "fuse"
		err = k.Register(fuse.Type{Factory: func() core.FileSystem {
			return bentoimpl.New(bentoimpl.Config{Policy: pol})
		}})
	case VariantExt4:
		fstype = "ext4"
		err = k.Register(ext4.Type{Cfg: ext4.Config{NoBarriers: !mc.Barriers, DataBypass: mc.Bypass}})
	default:
		return nil, fmt.Errorf("harness: unknown variant %q", variant)
	}
	if err != nil {
		return nil, err
	}
	if ninodes > 0 {
		if variant == VariantExt4 {
			err = ext4.Mkfs(task, dev, ninodes)
		} else {
			_, err = layout.Mkfs(vclock.NewClock(), dev, ninodes)
		}
		if err != nil {
			return nil, err
		}
	}
	return k.Mount(task, fstype, "/", dev)
}
