package bento

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// mountConfigPackages are the file systems a variant mount configures,
// import path -> directory. Each spells its config type Config.
var mountConfigPackages = map[string]string{
	"bento/internal/xv6/bentoimpl": "internal/xv6/bentoimpl",
	"bento/internal/xv6/vfsimpl":   "internal/xv6/vfsimpl",
	"bento/internal/ext4":          "internal/ext4",
}

// mountConfigSite is the one function allowed to build those configs.
const mountConfigSite = "internal/harness/mount.go:Mount"

// TestOneMountConfigSite keeps "which configuration does a variant mount"
// decided in one place: no non-test Go outside benchmark/ writes a
// composite literal of bentoimpl.Config, vfsimpl.Config or ext4.Config,
// except harness.Mount, through which both the benchmark harness and the
// crash fuzzer mount. (benchmark/ keeps a frozen hand copy that its
// traced-vs-untraced digest check holds equal.) A second site is how the
// benchmarked and the crash-tested configurations drift apart unnoticed.
func TestOneMountConfigSite(t *testing.T) {
	fset := token.NewFileSet()
	files, atSite := 0, 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p == "benchmark" || (p != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// isConfig reports whether a literal's type names one of the
		// configs: qualified by an import, or bare inside its own package.
		qualifiers := map[string]bool{}
		bare := false
		for imp, dir := range mountConfigPackages {
			if name := importName(f, imp); name != "" {
				qualifiers[name] = true
			}
			bare = bare || path.Dir(p) == dir
		}
		isConfig := func(typ ast.Expr) bool {
			switch typ := typ.(type) {
			case *ast.SelectorExpr:
				x, ok := typ.X.(*ast.Ident)
				return ok && qualifiers[x.Name] && typ.Sel.Name == "Config"
			case *ast.Ident:
				return bare && typ.Name == "Config"
			}
			return false
		}
		for _, decl := range f.Decls {
			site := p
			if fn, ok := decl.(*ast.FuncDecl); ok {
				site += ":" + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || !isConfig(lit.Type) {
					return true
				}
				if site == mountConfigSite {
					atSite++
					return true
				}
				t.Errorf("%s: a file-system config built outside %s — mount the variant through harness.Mount "+
					"(and take a live upgrade's replacement config from the running module)", fset.Position(lit.Pos()), mountConfigSite)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 60 {
		t.Fatalf("walked only %d files: run from the repository root", files)
	}
	// Bento, C-Kernel, the FUSE daemon and ext4: one literal each.
	if atSite != 4 {
		t.Fatalf("%s builds %d file-system configs, want 4 (one per variant)", mountConfigSite, atSite)
	}
}
