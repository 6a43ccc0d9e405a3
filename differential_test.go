package bento

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// A diffOp is one system call of the differential op list. diffOps builds
// the whole list from the seed before any file system exists, so every
// target executes byte-identical input and memfs's answers are the
// reference for the other four.
type diffKind uint8

const (
	dCreate     diffKind = iota // open(path, O_CREAT|O_EXCL|O_RDWR), close
	dWrite                      // open(path, O_CREAT|O_RDWR), pwrite data at off, close
	dRead                       // pread n bytes at off
	dTruncate                   // ftruncate to off
	dRename                     // rename path -> to
	dLink                       // link path -> to
	dUnlink                     // unlink path
	dMkdir                      // mkdir path
	dRmdir                      // rmdir path
	dReadDir                    // readdir path, sorted
	dStat                       // stat path
	dFsync                      // open path, fsync, close
	dSync                       // sync
	dDropCaches                 // drop the page, dentry and buffer caches
)

var diffKindNames = [...]string{"create", "write", "read", "truncate", "rename", "link", "unlink", "mkdir", "rmdir", "readdir", "stat", "fsync", "sync", "dropcaches"}

type diffOp struct {
	kind     diffKind
	path, to string
	off      int64
	n        int
	data     []byte
}

func (o diffOp) String() string {
	s := diffKindNames[o.kind] + " " + o.path
	switch o.kind {
	case dRename, dLink:
		s += " " + o.to
	case dWrite:
		s += fmt.Sprintf(" off=%d n=%d", o.off, len(o.data))
	case dRead:
		s += fmt.Sprintf(" off=%d n=%d", o.off, o.n)
	case dTruncate:
		s += fmt.Sprintf(" size=%d", o.off)
	}
	return s
}

// The namespace the ops draw from. Files live in the root, two top-level
// directories and two leaf directories; renames move files between any of
// those and leaf directories between the top-level ones (never into their
// own subtree). Sizes straddle the 4 KiB block: sub-block offsets,
// writes across block boundaries, truncates that shrink and regrow
// across blocks.
var (
	diffTopDirs  = []string{"/d0", "/d1"}
	diffLeafDirs = []string{"/d0/s", "/d1/t", "/d0/t", "/d1/s"}
	diffFiles    = func() []string {
		var out []string
		for _, d := range []string{"", "/d0", "/d1", "/d0/s", "/d1/t"} {
			for _, n := range []string{"a", "b", "c"} {
				out = append(out, d+"/"+n)
			}
		}
		return out
	}()
)

const diffBlock = 4096

func diffOps(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	ops := []diffOp{{kind: dMkdir, path: "/d0"}, {kind: dMkdir, path: "/d1"}, {kind: dMkdir, path: "/d0/s"}, {kind: dMkdir, path: "/d1/t"}}
	for len(ops) < n {
		var o diffOp
		switch r := rng.Intn(100); {
		case r < 12:
			o = diffOp{kind: dCreate, path: pick(diffFiles)}
		case r < 32:
			o = diffOp{kind: dWrite, path: pick(diffFiles), off: rng.Int63n(3 * diffBlock)}
			if rng.Intn(3) == 0 {
				o.off -= o.off % diffBlock
			}
			o.data = make([]byte, 1+rng.Intn(2*diffBlock+200))
			rng.Read(o.data)
		case r < 42:
			o = diffOp{kind: dRead, path: pick(diffFiles), off: rng.Int63n(4 * diffBlock), n: 1 + rng.Intn(3*diffBlock)}
		case r < 50:
			o = diffOp{kind: dTruncate, path: pick(diffFiles), off: rng.Int63n(5 * diffBlock)}
		case r < 58:
			o = diffOp{kind: dRename, path: pick(diffFiles), to: pick(diffFiles)}
		case r < 62:
			o = diffOp{kind: dRename, path: pick(diffLeafDirs), to: pick(diffLeafDirs)}
		case r < 66:
			o = diffOp{kind: dLink, path: pick(diffFiles), to: pick(diffFiles)}
		case r < 72:
			o = diffOp{kind: dUnlink, path: pick(diffFiles)}
		case r < 75:
			o = diffOp{kind: dMkdir, path: pick(append(diffLeafDirs, diffTopDirs...))}
		case r < 79:
			o = diffOp{kind: dRmdir, path: pick(append(diffLeafDirs, diffTopDirs...))}
		case r < 83:
			o = diffOp{kind: dReadDir, path: pick(append([]string{"/"}, append(diffLeafDirs, diffTopDirs...)...))}
		case r < 90:
			// Through ".." too: the file system resolves it, from the
			// entry a cross-directory rename rewrites.
			p := pick(diffFiles)
			if rng.Intn(2) == 0 {
				p = pick(diffLeafDirs) + "/.." + p[strings.LastIndexByte(p, '/'):]
			}
			o = diffOp{kind: dStat, path: p}
		case r < 95:
			o = diffOp{kind: dFsync, path: pick(diffFiles)}
		case r < 98:
			o = diffOp{kind: dSync}
		default:
			o = diffOp{kind: dDropCaches}
		}
		ops = append(ops, o)
	}
	return ops
}

// diffRun executes ops on m and returns one line per op — its errno and
// every value it returned — followed by the final tree: each path with
// its type, file size, nlink and a digest of its bytes, listings sorted.
func diffRun(m *kernel.Mount, task *kernel.Task, ops []diffOp) []string {
	out := make([]string, 0, len(ops)+32)
	errno := func(err error) string {
		if err == nil {
			return "ok"
		}
		for u := errors.Unwrap(err); u != nil; u = errors.Unwrap(err) {
			err = u
		}
		return err.Error()
	}
	// A directory's size is its format's (memfs reports 0): compared
	// for files only.
	statLine := func(st fsapi.Stat) string {
		if st.Type == fsapi.TypeDir {
			return fmt.Sprintf("type=%v nlink=%d", st.Type, st.Nlink)
		}
		return fmt.Sprintf("type=%v size=%d nlink=%d", st.Type, st.Size, st.Nlink)
	}
	listing := func(path string) (string, error) {
		ents, err := m.ReadDir(task, path)
		if err != nil {
			return "", err
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = fmt.Sprintf("%s:%v", e.Name, e.Type)
		}
		sort.Strings(names)
		return strings.Join(names, ","), nil
	}
	withFile := func(path string, flags int, fn func(f *kernel.File) string) string {
		f, err := m.Open(task, path, flags)
		if err != nil {
			return errno(err)
		}
		res := fn(f)
		if err := m.Close(task, f); err != nil {
			res += " close " + errno(err)
		}
		return res
	}
	for _, o := range ops {
		var res string
		switch o.kind {
		case dCreate:
			res = withFile(o.path, fsapi.OCreate|fsapi.OExcl|fsapi.ORdwr, func(*kernel.File) string { return "ok" })
		case dWrite:
			res = withFile(o.path, fsapi.OCreate|fsapi.ORdwr, func(f *kernel.File) string {
				n, err := f.PWrite(task, o.data, o.off)
				return fmt.Sprintf("%s n=%d size=%d", errno(err), n, f.Size())
			})
		case dRead:
			res = withFile(o.path, fsapi.ORdonly, func(f *kernel.File) string {
				buf := make([]byte, o.n)
				n, err := f.PRead(task, buf, o.off)
				return fmt.Sprintf("%s n=%d %x", errno(err), n, digest(buf[:n]))
			})
		case dTruncate:
			res = withFile(o.path, fsapi.ORdwr, func(f *kernel.File) string { return errno(f.Truncate(task, o.off)) })
		case dRename:
			res = errno(m.Rename(task, o.path, o.to))
		case dLink:
			res = errno(m.Link(task, o.path, o.to))
		case dUnlink:
			res = errno(m.Unlink(task, o.path))
		case dMkdir:
			res = errno(m.Mkdir(task, o.path))
		case dRmdir:
			res = errno(m.Rmdir(task, o.path))
		case dReadDir:
			l, err := listing(o.path)
			res = errno(err) + " " + l
		case dStat:
			st, err := m.Stat(task, o.path)
			res = errno(err)
			if err == nil {
				res += " " + statLine(st)
			}
		case dFsync:
			res = withFile(o.path, fsapi.ORdwr, func(f *kernel.File) string { return errno(f.FSync(task)) })
		case dSync:
			res = errno(m.Sync(task))
		case dDropCaches:
			m.DropCaches()
			res = "ok"
		}
		out = append(out, o.String()+": "+res)
	}

	var walk func(dir string)
	walk = func(dir string) {
		ents, err := m.ReadDir(task, dir)
		if err != nil {
			out = append(out, "walk "+dir+": "+errno(err))
			return
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			st, err := m.Stat(task, p)
			if err != nil {
				out = append(out, "final "+p+": "+errno(err))
				continue
			}
			line := "final " + p + ": " + statLine(st)
			if st.Type == fsapi.TypeDir {
				out = append(out, line)
				walk(p)
				continue
			}
			data, err := m.ReadFile(task, p)
			out = append(out, fmt.Sprintf("%s %s len=%d %x", line, errno(err), len(data), digest(data)))
		}
	}
	walk("/")
	return out
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

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

// TestDifferentialOpList runs seeded op lists on memfs and on every
// variant — C-Kernel, ext4, Bento and FUSE — and requires every return
// value and errno, size, nlink, type, sorted listing and byte to agree
// with memfs's.
func TestDifferentialOpList(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := diffOps(seed, 150)
		m, task := diffMount(t, "memfs", seed)
		want := diffRun(m, task, ops)
		for _, v := range harness.AllVariants {
			m, task := diffMount(t, v, seed)
			got := diffRun(m, task, ops)
			if i := firstDiff(want, got); i >= 0 {
				w, g := "<end>", "<end>"
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				t.Errorf("seed %d, %s diverges from memfs at line %d:\n  memfs: %s\n  %s: %s", seed, v, i, w, v, g)
			}
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
