package bento

import (
	"go/ast"
	"go/token"
	"path"
	"testing"
)

// xv6FSDir is the one package that runs the xv6 file system's algorithm:
// Bento mounts it through the core shim, the FUSE daemon hosts it, and
// the C-Kernel and ext4 mount it over the raw buffer cache.
const xv6FSDir = "internal/xv6/bentoimpl"

// onDiskHelpers are the layout functions that read or write an on-disk
// inode, directory entry or bitmap block: what an implementation of the
// file system calls and nothing else needs.
var onDiskHelpers = map[string]bool{
	"DecodeDinode": true,
	"DinodeType":   true,
	"InodeOffset":  true,
	"DirentIs":     true,
	"DecodeDirent": true,
	"EncodeDirent": true,
}

// onDiskMethods are the layout.Superblock methods that place an inode or
// a bitmap bit on the device. A method call names no package, so they
// are matched by name wherever they are called.
var onDiskMethods = map[string]bool{
	"BitmapBlock": true,
	"InodeBlock":  true,
}

// TestOneXv6FS keeps the xv6 file system in one place: no non-test Go
// outside internal/xv6/layout and internal/xv6/bentoimpl calls the
// on-disk inode, dirent or bitmap helpers. A package that called them
// would be growing a second copy of the file system — allocation, block
// map, truncate, directories — which every change to the algorithm would
// then have to edit twice.
func TestOneXv6FS(t *testing.T) {
	const layoutPkg = "bento/internal/xv6/layout"
	calls := 0
	forEachFile(t, []string{"."}, nil, 60, func(p string, fset *token.FileSet, f *ast.File) {
		dir := path.Dir(p)
		if dir == "internal/xv6/layout" {
			return
		}
		name := importName(f, layoutPkg)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, isIdent := sel.X.(*ast.Ident)
			helper := isIdent && name != "" && x.Name == name && onDiskHelpers[sel.Sel.Name]
			if !helper && !onDiskMethods[sel.Sel.Name] {
				return true
			}
			if dir == xv6FSDir {
				calls++
				return true
			}
			t.Errorf("%s: %s outside %s: the xv6 file system is %s's; "+
				"mount it over a bentoks.Disk instead of writing a copy of it",
				fset.Position(sel.Pos()), sel.Sel.Name, xv6FSDir, xv6FSDir)
			return true
		})
	})
	if calls == 0 {
		t.Errorf("found no on-disk helper call in %s: is the guard looking in the right place?", xv6FSDir)
	}
}
