package bento

import (
	"fmt"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/memfs"
	"bento/internal/oplist"
	"bento/internal/xv6/layout"
)

// diffMount formats a small device and mounts variant on it at "/" of k;
// "memfs" mounts the reference. Even seeds take the published
// configuration, odd ones turn the data bypass off so file data also
// crosses the in-kernel journals and buffer caches.
func diffMount(t *testing.T, variant string, seed int64) (k *kernel.Kernel, m *kernel.Mount, task *kernel.Task) {
	t.Helper()
	model := costmodel.Default()
	k = kernel.New(model)
	task = k.NewTask("diff")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: model})
	var err error
	if variant == "memfs" {
		if err = k.Register(memfs.Type{}); err == nil {
			m, err = k.Mount(task, "memfs", "/", dev)
		}
	} else {
		mc := harness.Published(variant)
		mc.Bypass = seed%2 == 0
		m, err = harness.Mount(k, task, dev, variant, mc, 256)
	}
	if err != nil {
		t.Fatalf("%s: mount: %v", variant, err)
	}
	return k, m, task
}

// TestDifferentialOpList runs seeded op lists (oplist.Generate) on memfs
// and on every variant — C-Kernel, ext4, Bento and FUSE — and requires
// every op's result line (errno and every value it returned) and the
// final tree (type, size, nlink, sorted listing, a digest of every
// file's bytes) to agree with memfs's. A divergence logs the list up to
// the op that diverged, in fsshell syntax, for replay. Each variant's
// run then ends in a checked image: it unmounts (each variant's leak
// check) and layout.Fsck must pass the device.
func TestDifferentialOpList(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := oplist.Generate(seed, 150)
		want := diffLines(t, "memfs", seed, ops)
		for _, v := range harness.AllVariants {
			got := diffLines(t, v, seed, ops)
			i := firstDiff(want, got)
			if i < 0 {
				continue
			}
			w, g := "<end>", "<end>"
			if i < len(want) {
				w = want[i]
			}
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("seed %d (bypass %v), %s diverges from memfs at line %d:\n  memfs: %s\n  %s: %s\nop list:%s",
				seed, seed%2 == 0, v, i, w, v, g, replay(ops[:min(i+1, len(ops))]))
		}
	}
}

// diffLines mounts variant for seed, runs ops on it and returns one line
// per op, its op and result, then the final tree's lines. A variant's
// image must then unmount and fsck clean.
func diffLines(t *testing.T, variant string, seed int64, ops []oplist.Op) []string {
	k, m, task := diffMount(t, variant, seed)
	out := oplist.Run(m, task, ops, nil)
	for i, res := range out {
		out[i] = ops[i].String() + ": " + res
	}
	tree, err := oplist.Tree(m, task)
	out = append(out, tree...)
	if err != nil {
		out = append(out, "tree: "+err.Error())
	}
	if variant != "memfs" {
		if err := checkedImage(k, m, task); err != nil {
			t.Errorf("seed %d (bypass %v), %s: %v\nop list:%s", seed, seed%2 == 0, variant, err, replay(ops))
		}
	}
	return out
}

// checkedImage unmounts m, the mount at "/" of k, and checks the image
// it leaves on its device.
func checkedImage(k *kernel.Kernel, m *kernel.Mount, task *kernel.Task) error {
	if err := k.Unmount(task, "/"); err != nil {
		return fmt.Errorf("unmount: %w", err)
	}
	rep, err := layout.Fsck(task.Clk, m.Device())
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %s", strings.Join(rep.Errors, "; "))
	}
	return nil
}

// replay renders ops one per line in fsshell syntax.
func replay(ops []oplist.Op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "\n  %s", o)
	}
	return b.String()
}

// TestStatFSInodesAgree runs one op list ending in statfs on every
// variant; over the same inode table (harness.Mount formats 256 inodes
// for each) all four must count the same inodes, total and free.
func TestStatFSInodesAgree(t *testing.T) {
	var ops []oplist.Op
	for _, line := range []string{
		"create /a", "mkdir /d", "write /d/f hello", "ln /a /d/g", "mkdir /d/e",
		"rm /a", "rmdir /d/e", "statfs",
	} {
		o, err := oplist.Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, o)
	}
	// Inums 1..255 are usable; root, /d, /d/f and /d/g (once /a) are used.
	const want = "inodes 251/256 free"
	for _, v := range harness.AllVariants {
		_, m, task := diffMount(t, v, 0)
		out := oplist.Run(m, task, ops, nil)
		if got := out[len(out)-1]; !strings.HasSuffix(got, want) {
			t.Errorf("%s: statfs: %s, want ... %s", v, got, want)
		}
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
