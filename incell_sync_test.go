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

// syncAllowed lists the only place in those packages where two host
// goroutines can reach the same state at the same host instant, as
// file -> sync identifier -> how many times it may be named there.
var syncAllowed = map[string]map[string]int{
	// The scheduler parks and wakes real goroutines; its mutex is what
	// orders every other (plain) access in the cell.
	"internal/vclock/sched.go": {"Mutex": 1},
}

// deterministicPackages are held to the determinism lint: the in-cell
// packages, plus internal/buginject, whose bug classes run on the same
// simulation and whose outcome table must replay exactly.
var deterministicPackages = append(inCellPackages[:len(inCellPackages):len(inCellPackages)], "internal/buginject")

// forEachFile parses every non-test Go file of pkgs and hands it to fn
// with its slash-separated path.
func forEachFile(t *testing.T, pkgs []string, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	files := 0
	for _, pkg := range pkgs {
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
			fn(path, fset, f)
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

// importName is the name f refers to the package at importPath by, ""
// when f does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != importPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return importPath[strings.LastIndex(importPath, "/")+1:]
	}
	return ""
}

// TestInCellCodeTakesNoHostLocks keeps the single-owner rule true: no
// non-test file of an in-cell package imports sync/atomic or names
// sync.Mutex, RWMutex, Cond, Pool or Map outside syncAllowed. (WaitGroup,
// Once and OnceValue stay legal: joining worker goroutines and building
// read-only tables are not shared mutable state.)
func TestInCellCodeTakesNoHostLocks(t *testing.T) {
	banned := map[string]bool{"Mutex": true, "RWMutex": true, "Cond": true, "NewCond": true, "Pool": true, "Map": true}
	forEachFile(t, inCellPackages, func(path string, fset *token.FileSet, f *ast.File) {
		if importName(f, "sync/atomic") != "" {
			t.Errorf("%s imports sync/atomic: in-cell state is single-owner, use plain fields", path)
		}
		syncName := importName(f, "sync")
		if syncName == "" {
			return
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
	})
}

// hostClock are the time functions that read or wait on the host clock.
var hostClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// seededRand are the math/rand names that leave the global source alone:
// building a generator from a seed, and the types it is used through.
var seededRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// TestInCellCodeIsDeterministic is the static half of the determinism
// contract (docs/architecture.md): no non-test file of
// deterministicPackages reads or waits on the host clock (time.Now,
// Since, Until, Sleep, After, AfterFunc, Tick, NewTimer, NewTicker),
// draws from math/rand's global source (a generator from rand.New stays
// legal), or starts a goroutine outside internal/vclock/sched.go, whose
// scheduler is the one place a cell runs real goroutines. The
// byte-compared matrices catch a violation only on the paths they happen
// to cover; this catches it on every path.
func TestInCellCodeIsDeterministic(t *testing.T) {
	forEachFile(t, deterministicPackages, func(path string, fset *token.FileSet, f *ast.File) {
		timeName := importName(f, "time")
		randName := importName(f, "math/rand")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if path != "internal/vclock/sched.go" {
					t.Errorf("%s: go statement — in a cell only the vclock scheduler starts goroutines; "+
						"run concurrent work as tasks of a vclock.Group", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case x.Name == timeName && hostClock[n.Sel.Name]:
					t.Errorf("%s: time.%s reads the host clock — in-cell time is virtual; use the task's vclock",
						fset.Position(n.Pos()), n.Sel.Name)
				case x.Name == randName && !seededRand[n.Sel.Name]:
					t.Errorf("%s: rand.%s draws from the global source — use a generator from rand.New seeded by the cell",
						fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
	})
}
