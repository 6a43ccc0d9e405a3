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
)

// diffMount formats a small device and mounts variant on it; "memfs"
// mounts the reference. Even seeds take the published configuration,
// odd ones turn the data bypass off so file data also crosses the
// in-kernel journals and buffer caches.
func diffMount(t *testing.T, variant string, seed int64) (*kernel.Mount, *kernel.Task) {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	task := k.NewTask("diff")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 2048, Model: model})
	var m *kernel.Mount
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
	return m, task
}

// TestDifferentialOpList runs seeded op lists (oplist.Generate) on memfs
// and on every variant — C-Kernel, ext4, Bento and FUSE — and requires
// every op's result line (errno and every value it returned) and the
// final tree (type, size, nlink, sorted listing, a digest of every
// file's bytes) to agree with memfs's. A divergence logs the list up to
// the op that diverged, in fsshell syntax, for replay.
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
			var replay strings.Builder
			for _, o := range ops[:min(i+1, len(ops))] {
				fmt.Fprintf(&replay, "\n  %s", o)
			}
			t.Errorf("seed %d (bypass %v), %s diverges from memfs at line %d:\n  memfs: %s\n  %s: %s\nop list:%s",
				seed, seed%2 == 0, v, i, w, v, g, replay.String())
		}
	}
}

// diffLines mounts variant for seed, runs ops on it and returns one line
// per op, its op and result, then the final tree's lines.
func diffLines(t *testing.T, variant string, seed int64, ops []oplist.Op) []string {
	m, task := diffMount(t, variant, seed)
	out := oplist.Run(m, task, ops, nil)
	for i, res := range out {
		out[i] = ops[i].String() + ": " + res
	}
	tree, err := oplist.Tree(m, task)
	out = append(out, tree...)
	if err != nil {
		out = append(out, "tree: "+err.Error())
	}
	return out
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
