package bento

import (
	"go/ast"
	"go/token"
	"path"
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

// mountTypePackages are the file systems whose kernel.FileSystemType
// carries the config, import path -> directory: registering one, even
// zero-valued, chooses a configuration.
var mountTypePackages = map[string]string{
	"bento/internal/xv6/vfsimpl": "internal/xv6/vfsimpl",
	"bento/internal/ext4":        "internal/ext4",
}

// mountConfigSite is the one function allowed to build those configs.
const mountConfigSite = "internal/harness/mount.go:Mount"

// testedDirs are the directories whose tests mount the xv6 file system.
// Their _test.go files are held to the rule too, so what the tests check
// is a configuration harness.Mount builds.
var testedDirs = []string{"internal/xv6/", "internal/ext4/"}

// configExceptions are the test functions that build a config
// themselves, each with what harness.MountConfig cannot say.
var configExceptions = map[string]string{
	"internal/xv6/bentoimpl/databypass_test.go:TestBentoByReferenceMatchesCopying": "a factory that hides bentoimpl's optional interfaces from the Bento shim",
}

// TestOneMountConfigSite keeps "which configuration does a variant mount"
// decided in one place: no non-test Go outside benchmark/, and no test
// of the xv6 file system or ext4, writes a composite literal of
// bentoimpl.Config, vfsimpl.Config or ext4.Config, or of vfsimpl.Type or
// ext4.Type, except harness.Mount, through which the benchmark harness,
// the crash fuzzer and those tests mount, and the configExceptions.
// (benchmark/ keeps a frozen hand copy that its traced-vs-untraced digest
// check holds equal.) A second site is how the benchmarked, the
// crash-tested and the unit-tested configurations drift apart unnoticed.
func TestOneMountConfigSite(t *testing.T) {
	atSite := 0
	excepted := map[string]bool{}
	forEachFile(t, []string{"."}, testedDirs, 60, func(p string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(p, "benchmark/") {
			return
		}
		// isConfig reports whether a literal's type names one of the
		// configs: qualified by an import, or bare inside its own package.
		qualifiers, typeQualifiers := map[string]bool{}, map[string]bool{}
		bare := false
		for imp, dir := range mountConfigPackages {
			if name := importName(f, imp); name != "" {
				qualifiers[name] = true
				if _, ok := mountTypePackages[imp]; ok {
					typeQualifiers[name] = true
				}
			}
			bare = bare || path.Dir(p) == dir && !strings.HasSuffix(f.Name.Name, "_test")
		}
		isConfig := func(typ ast.Expr) bool {
			switch typ := typ.(type) {
			case *ast.SelectorExpr:
				x, ok := typ.X.(*ast.Ident)
				return ok && (qualifiers[x.Name] && typ.Sel.Name == "Config" || typeQualifiers[x.Name] && typ.Sel.Name == "Type")
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
					if sel, ok := lit.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name == "Config" {
						atSite++
					}
					return true
				}
				if _, ok := configExceptions[site]; ok {
					excepted[site] = true
					return true
				}
				t.Errorf("%s: a file-system config built outside %s — mount the variant through harness.Mount "+
					"(and take a live upgrade's replacement config from the running module)", fset.Position(lit.Pos()), mountConfigSite)
				return true
			})
		}
	})
	for site, why := range configExceptions {
		if !excepted[site] {
			t.Errorf("%s is listed as building its own config (%s) but builds none: drop it from configExceptions", site, why)
		}
	}
	// Bento, C-Kernel, the FUSE daemon and ext4: one literal each.
	if atSite != 4 {
		t.Fatalf("%s builds %d file-system configs, want 4 (one per variant)", mountConfigSite, atSite)
	}
}
