package memfs_test

import (
	"errors"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

func mount(t *testing.T) (*kernel.Mount, *kernel.Task) {
	t.Helper()
	model := costmodel.Default()
	k := kernel.New(model)
	task := k.NewTask("test")
	if err := k.Register(memfs.Type{}); err != nil {
		t.Fatal(err)
	}
	m, err := k.Mount(task, "memfs", "/", blockdev.MustNew(blockdev.Config{Blocks: 64, Model: model}))
	if err != nil {
		t.Fatal(err)
	}
	return m, task
}

// TestRenameReplacesOneLink checks that a rename onto an existing file
// takes one link from it, as an unlink would: a target with another name
// survives under that name, and a target that is another name of the
// moving file leaves it with the remaining link.
func TestRenameReplacesOneLink(t *testing.T) {
	m, task := mount(t)
	for _, p := range []string{"/x", "/z"} {
		if err := m.WriteFile(task, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Link(task, "/x", "/y"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/z", "/x"); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadFile(task, "/y"); err != nil || string(got) != "/x" {
		t.Fatalf("/y after its other name was replaced: %q, %v", got, err)
	}
	if st, err := m.Stat(task, "/y"); err != nil || st.Nlink != 1 {
		t.Fatalf("/y: %+v, %v; want nlink 1", st, err)
	}

	if err := m.Link(task, "/y", "/w"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/y", "/w"); err != nil {
		t.Fatal(err)
	}
	if st, err := m.Stat(task, "/w"); err != nil || st.Nlink != 1 {
		t.Fatalf("/w after renaming its other name onto it: %+v, %v; want nlink 1", st, err)
	}
	if _, err := m.Stat(task, "/y"); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("/y after rename: %v, want ErrNotExist", err)
	}

	if err := m.Rename(task, "/w", "/w"); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadFile(task, "/w"); err != nil || string(got) != "/x" {
		t.Fatalf("/w after renaming onto itself: %q, %v", got, err)
	}
}

// TestRenameTypeMismatch checks that a file cannot replace a directory
// nor a directory a file.
func TestRenameTypeMismatch(t *testing.T) {
	m, task := mount(t)
	if err := m.Mkdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(task, "/f", []byte("f")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/f", "/d"); !errors.Is(err, fsapi.ErrIsDir) {
		t.Errorf("rename file onto directory: %v, want ErrIsDir", err)
	}
	if err := m.Rename(task, "/d", "/f"); !errors.Is(err, fsapi.ErrNotDir) {
		t.Errorf("rename directory onto file: %v, want ErrNotDir", err)
	}
}
