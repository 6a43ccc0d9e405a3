package bentoimpl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuffersReleaseOnDrop is the Go rendering of the compiler rejecting
// a missing drop: in this package's non-test files every variable
// assigned from BRead, BReadNoFill, BAdopt or BClone is released by a
// `defer drop(v, &err)` in the function that acquired it, err being that
// function's named result, and no zero-argument Release() call appears
// anywhere but inside drop. A closure counts as a function of its own,
// since a defer runs when the closure returns. These files hold the xv6
// file system every variant runs — Bento, FUSE, the C-Kernel and ext4 —
// so the walk must find the algorithm's functions declared in them.
func TestBuffersReleaseOnDrop(t *testing.T) {
	acquire := map[string]bool{"BRead": true, "BReadNoFill": true, "BAdopt": true, "BClone": true}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	declared := map[string]bool{}
	// check inspects one function body, not descending into closures,
	// which the loop below checks as functions of their own.
	check := func(name string, typ *ast.FuncType, body *ast.BlockStmt) {
		acquired := map[string]token.Pos{}
		var order []string // acquired's keys in source order
		dropped := map[string]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !acquire[sel.Sel.Name] {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if _, seen := acquired[id.Name]; !seen {
							acquired[id.Name] = n.Pos()
							order = append(order, id.Name)
						}
					} else {
						t.Errorf("%s: %s's %s result is not held in a variable a drop can name",
							fset.Position(n.Pos()), name, sel.Sel.Name)
					}
				}
			case *ast.DeferStmt:
				if fn, ok := n.Call.Fun.(*ast.Ident); ok && fn.Name == "drop" && len(n.Call.Args) == 2 {
					v, ok1 := n.Call.Args[0].(*ast.Ident)
					ref, ok2 := n.Call.Args[1].(*ast.UnaryExpr)
					if ok1 && ok2 && ref.Op == token.AND {
						if e, ok := ref.X.(*ast.Ident); ok && e.Name == "err" {
							dropped[v.Name] = true
						}
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(n.Args) == 0 && name != "drop" {
					t.Errorf("%s: %s calls Release by hand; defer drop instead", fset.Position(n.Pos()), name)
				}
			}
			return true
		})
		for _, v := range order {
			checked++
			if !dropped[v] {
				t.Errorf("%s: %s acquires %s with no `defer drop(%s, &err)`", fset.Position(acquired[v]), name, v, v)
			}
		}
		if len(acquired) > 0 && !namesErr(typ) {
			t.Errorf("%s: %s acquires a buffer but has no named result err for drop to set", fset.Position(body.Pos()), name)
		}
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			declared[fd.Name.Name] = true
			check(fd.Name.Name, fd.Type, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					check(fd.Name.Name+" (closure)", fl.Type, fl.Body)
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("found no buffer acquisition to check")
	}
	for _, fn := range []string{"balloc", "bfree", "ialloc", "iload", "iupdate", "iput",
		"bmap", "itrunc", "readi", "writev", "dirlink", "dirunlink", "CopyBlock"} {
		if !declared[fn] {
			t.Errorf("%s is not declared in the files checked: the file system's code has moved", fn)
		}
	}
}

// namesErr reports whether typ's results include one named err.
func namesErr(typ *ast.FuncType) bool {
	if typ.Results == nil {
		return false
	}
	for _, f := range typ.Results.List {
		for _, n := range f.Names {
			if n.Name == "err" {
				return true
			}
		}
	}
	return false
}
