package bento

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// inCellPackages are the packages a benchmark cell owns outright: one of
// the cell's tasks runs at a time (docs/architecture.md, "Determinism
// contract"), so nothing in them may take a host lock or use an atomic.
var inCellPackages = []string{
	"internal/vclock", "internal/kernel", "internal/lru", "internal/bentoks",
	"internal/blockdev", "internal/netstore", "internal/iodaemon", "internal/fuse",
	"internal/core", "internal/trace", "internal/ext4", "internal/memfs",
	"internal/filebench", "internal/xv6",
}

// syncAllowed lists the only two places in those packages where two
// host goroutines can reach the same state at the same host instant, as
// file -> sync identifier -> how many times it may be named there.
var syncAllowed = map[string]map[string]int{
	// The scheduler parks and wakes real goroutines; its mutex is what
	// orders every other (plain) access in the cell.
	"internal/vclock/sched.go": {"Mutex": 1},
	// bentoks.Semaphore: internal/buginject's AB-BA demonstration blocks
	// two free-running goroutines on a pair of them by design.
	"internal/bentoks/bentoks.go": {"Mutex": 2},
}

// TestInCellCodeTakesNoHostLocks keeps the single-owner rule true: no
// non-test file of an in-cell package imports sync/atomic or names
// sync.Mutex, RWMutex, Cond, Pool or Map outside syncAllowed. (WaitGroup,
// Once and OnceValue stay legal: joining worker goroutines and building
// read-only tables are not shared mutable state.)
func TestInCellCodeTakesNoHostLocks(t *testing.T) {
	banned := map[string]bool{"Mutex": true, "RWMutex": true, "Cond": true, "NewCond": true, "Pool": true, "Map": true}
	fset := token.NewFileSet()
	files := 0
	for _, pkg := range inCellPackages {
		err := filepath.WalkDir(pkg, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			files++
			path = filepath.ToSlash(path)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			syncName := ""
			for _, imp := range f.Imports {
				switch strings.Trim(imp.Path.Value, `"`) {
				case "sync/atomic":
					t.Errorf("%s imports sync/atomic: in-cell state is single-owner, use plain fields", path)
				case "sync":
					syncName = "sync"
					if imp.Name != nil {
						syncName = imp.Name.Name
					}
				}
			}
			if syncName == "" {
				return nil
			}
			seen := map[string]int{}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName && banned[sel.Sel.Name] {
					seen[sel.Sel.Name]++
					if seen[sel.Sel.Name] > syncAllowed[path][sel.Sel.Name] {
						t.Errorf("%s: sync.%s — a host lock survives only where two host goroutines can reach the same state at once; "+
							"if this is such a place, add it to syncAllowed with the reason", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 40 {
		t.Fatalf("walked only %d files: run from the repository root", files)
	}
}
