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

// logFormatCallers are the layout functions that write, place or read
// the xv6 log's records, each with the package directories allowed to
// call it besides layout itself.
var logFormatCallers = map[string][]string{
	"EncodeCommitRecord": {"internal/xv6/journal"},
	"PlaceSlots":         {"internal/xv6/journal"},
	"SeqBefore":          {"internal/xv6/journal"},
	"CommitSum":          {"internal/xv6/journal"},
	"RecordSum":          {"internal/xv6/journal"},
	// journaltest is the device-side oracle: it reads what a commit
	// left on the device.
	"DecodeCommitRecord": {"internal/xv6/journal", "internal/xv6/journaltest"},
}

// TestOneJournal keeps the xv6 log algorithm in one place: no non-test
// Go outside internal/xv6/layout calls the functions that write a commit
// record or place a transaction in the log except internal/xv6/journal,
// the log that Bento, the C-Kernel and ext4 all run. A file system that
// called them would be growing a second log, which every change to the
// algorithm would then have to edit twice.
func TestOneJournal(t *testing.T) {
	const layoutPkg = "bento/internal/xv6/layout"
	fset := token.NewFileSet()
	files := 0
	calls := map[string]int{} // allowed calls per function
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := path.Dir(p)
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") || dir == "internal/xv6/layout" {
			return nil
		}
		files++
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := importName(f, layoutPkg)
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			allowed, guarded := logFormatCallers[sel.Sel.Name]
			if !ok || x.Name != name || !guarded {
				return true
			}
			for _, a := range allowed {
				if dir == a {
					calls[sel.Sel.Name]++
					return true
				}
			}
			t.Errorf("%s: layout.%s outside %s: the xv6 log is internal/xv6/journal's; "+
				"give the file system a journal.Log instead of a log of its own",
				fset.Position(sel.Pos()), sel.Sel.Name, strings.Join(allowed, ", "))
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 60 {
		t.Fatalf("walked only %d files: run from the repository root", files)
	}
	for fn := range logFormatCallers {
		if calls[fn] == 0 {
			t.Errorf("found no call of layout.%s where it is allowed: is the guard looking in the right place?", fn)
		}
	}
}
