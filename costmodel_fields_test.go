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
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
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

	// The fields of Model, and what each Model method reads of its receiver.
	var fields []string
	methods := map[string]map[string]bool{}
	pkg, err := filepath.Glob("internal/costmodel/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, decl := range parse(path).Decls {
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
	}
	if len(fields) < 30 || len(methods) < 5 {
		t.Fatalf("found %d costmodel.Model fields and %d methods: run from the repository root", len(fields), len(methods))
	}

	read := map[string]bool{}
	files := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path == "internal/costmodel" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files++
			reads(parse(path), "", read)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 60 {
		t.Fatalf("walked only %d files: run from the repository root", files)
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
