package bento

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// costmodelDir is the package that declares costmodel.Model.
const costmodelDir = "internal/costmodel"

// TestEveryCostModelFieldIsRead keeps costmodel.Model free of dead
// constants: every field must be read — selected as x.Field outside an
// assignment's left-hand side — by non-test code outside
// internal/costmodel, directly or through a Model method that code calls
// (DevRead reads DevReadBase and DevRead4K). A constant that only the
// model's constructors set prices nothing the simulation does. Selectors
// are matched by name, without type information, so the check can miss a
// dead field that shares its name with something read elsewhere; it
// cannot flag a live one.
func TestEveryCostModelFieldIsRead(t *testing.T) {
	// reads collects the names f selects outside assignment targets; recv,
	// when set, limits it to selections on that identifier.
	reads := func(n ast.Node, recv string, into map[string]bool) {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); !written[n] && (recv == "" || ok && x.Name == recv) {
					into[n.Sel.Name] = true
				}
			}
			return true
		})
	}

	// The fields of Model, what each Model method reads of its receiver,
	// and what the code outside internal/costmodel reads.
	var fields []string
	methods := map[string]map[string]bool{}
	read := map[string]bool{}
	forEachFile(t, []string{"."}, nil, 60, func(path string, _ *token.FileSet, f *ast.File) {
		if !strings.HasPrefix(path, costmodelDir+"/") {
			reads(f, "", read)
			return
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Model" {
						for _, f := range ts.Type.(*ast.StructType).Fields.List {
							for _, name := range f.Names {
								fields = append(fields, name.Name)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List[0].Names) == 0 {
					continue
				}
				uses := map[string]bool{}
				reads(d.Body, d.Recv.List[0].Names[0].Name, uses)
				methods[d.Name.Name] = uses
			}
		}
	})
	if len(fields) < 30 || len(methods) < 5 {
		t.Fatalf("found %d costmodel.Model fields and %d methods: run from the repository root", len(fields), len(methods))
	}
	// A method the simulation calls reads what its body reads, methods it
	// calls on the receiver included.
	for changed := true; changed; {
		changed = false
		for m, uses := range methods {
			if !read[m] {
				continue
			}
			for name := range uses {
				if !read[name] {
					read[name], changed = true, true
				}
			}
		}
	}
	for _, name := range fields {
		if !read[name] {
			t.Errorf("costmodel.Model.%s is read by no non-test code outside internal/costmodel: "+
				"a constant nothing reads prices nothing — delete it", name)
		}
	}
}

// TestOneCostModel keeps one calibration in the tree: internal/costmodel
// declares a single function that returns a *Model, Default, so every
// test, tool and crash sweep runs the timing the benchmark measures. A
// variation is a copy of it with fields changed (the WithNet method, or
// a test's own copy), not a second constructor.
func TestOneCostModel(t *testing.T) {
	var ctors []string
	forEachFile(t, []string{costmodelDir}, nil, 1, func(_ string, _ *token.FileSet, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Type.Results == nil {
				continue
			}
			if slices.ContainsFunc(fn.Type.Results.List, func(r *ast.Field) bool {
				star, ok := r.Type.(*ast.StarExpr)
				if !ok {
					return false
				}
				id, ok := star.X.(*ast.Ident)
				return ok && id.Name == "Model"
			}) {
				ctors = append(ctors, fn.Name.Name)
			}
		}
	})
	if !slices.Equal(ctors, []string{"Default"}) {
		t.Errorf("internal/costmodel's functions returning *Model: %v, want only [Default]: "+
			"a second calibration is a configuration no benchmark runs", ctors)
	}
}
