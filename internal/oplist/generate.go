package oplist

import (
	"math/rand"
	"strings"
)

// The namespace Generate draws from. Files live in the root, two
// top-level directories and two leaf directories; renames move files
// between any of those and leaf directories between the top-level ones
// (never into their own subtree). Sizes straddle the 4 KiB block:
// sub-block offsets, writes across block boundaries, truncates that
// shrink and regrow across blocks.
var (
	topDirs  = []string{"/d0", "/d1"}
	leafDirs = []string{"/d0/s", "/d1/t", "/d0/t", "/d1/s"}
	files    = func() []string {
		var out []string
		for _, d := range []string{"", "/d0", "/d1", "/d0/s", "/d1/t"} {
			for _, n := range []string{"a", "b", "c"} {
				out = append(out, d+"/"+n)
			}
		}
		return out
	}()
)

// tags are the content tags Generate draws: printable, so every list
// prints and parses back losslessly.
const tags = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

const block = 4096

// Generate builds an n-op list from seed alone, before any file system
// exists, so every target it runs on executes byte-identical input.
func Generate(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	ops := []Op{{Kind: Mkdir, Path: "/d0"}, {Kind: Mkdir, Path: "/d1"}, {Kind: Mkdir, Path: "/d0/s"}, {Kind: Mkdir, Path: "/d1/t"}}
	dirs := append(append([]string(nil), leafDirs...), topDirs...)
	for len(ops) < n {
		var o Op
		switch r := rng.Intn(100); {
		case r < 12:
			o = Op{Kind: Create, Path: pick(files)}
		case r < 32:
			o = Op{Kind: PWrite, Path: pick(files), Off: rng.Int63n(3 * block)}
			if rng.Intn(3) == 0 {
				o.Off -= o.Off % block
			}
			o.N = 1 + rng.Intn(2*block+200)
			o.Tag = tags[rng.Intn(len(tags))]
		case r < 42:
			o = Op{Kind: PRead, Path: pick(files), Off: rng.Int63n(4 * block), N: 1 + rng.Intn(3*block)}
		case r < 50:
			o = Op{Kind: Truncate, Path: pick(files), Off: rng.Int63n(5 * block)}
		case r < 58:
			o = Op{Kind: Mv, Path: pick(files), To: pick(files)}
		case r < 62:
			o = Op{Kind: Mv, Path: pick(leafDirs), To: pick(leafDirs)}
		case r < 66:
			o = Op{Kind: Ln, Path: pick(files), To: pick(files)}
		case r < 72:
			o = Op{Kind: Rm, Path: pick(files)}
		case r < 75:
			o = Op{Kind: Mkdir, Path: pick(dirs)}
		case r < 79:
			o = Op{Kind: Rmdir, Path: pick(dirs)}
		case r < 83:
			o = Op{Kind: Ls, Path: pick(append([]string{"/"}, dirs...))}
		case r < 90:
			// Through ".." too: the file system resolves it, from the
			// entry a cross-directory rename rewrites.
			p := pick(files)
			if rng.Intn(2) == 0 {
				p = pick(leafDirs) + "/.." + p[strings.LastIndexByte(p, '/'):]
			}
			o = Op{Kind: Stat, Path: p}
		case r < 95:
			o = Op{Kind: FSync, Path: pick(files)}
		case r < 98:
			o = Op{Kind: Sync}
		default:
			o = Op{Kind: DropCaches}
		}
		ops = append(ops, o)
	}
	return ops
}
