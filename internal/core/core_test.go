package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/vclock"
)

// toyFS is a minimal Bento file system used to test the framework layer in
// isolation from the real xv6 implementation: a flat root directory of
// in-memory files, with full state transfer for upgrades.
type toyFS struct {
	version int

	sb    bentoks.Disk
	files map[string][]byte // name -> contents
	inos  map[string]fsapi.Ino
	byIno map[fsapi.Ino]string
	next  fsapi.Ino
}

func newToyFS(version int) *toyFS { return &toyFS{version: version} }

func (f *toyFS) BentoName() string { return fmt.Sprintf("toyfs-v%d", f.version) }

func (f *toyFS) Init(t *kernel.Task, sb bentoks.Disk) error {
	f.sb = sb
	if f.files == nil {
		f.files = make(map[string][]byte)
		f.inos = make(map[string]fsapi.Ino)
		f.byIno = make(map[fsapi.Ino]string)
		f.next = fsapi.RootIno + 1
	}
	return nil
}

func (f *toyFS) Destroy(*kernel.Task) error { return nil }

func (f *toyFS) StatFS(*kernel.Task) (fsapi.FSStat, error) {
	return fsapi.FSStat{TotalInodes: int64(len(f.files))}, nil
}

func (f *toyFS) Lookup(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	if parent != fsapi.RootIno {
		return fsapi.Stat{}, fsapi.ErrNotDir
	}
	ino, ok := f.inos[name]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	return fsapi.Stat{Ino: ino, Type: fsapi.TypeFile, Size: int64(len(f.files[name])), Nlink: 1}, nil
}

func (f *toyFS) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	if ino == fsapi.RootIno {
		return fsapi.Stat{Ino: ino, Type: fsapi.TypeDir, Nlink: 2}, nil
	}
	name, ok := f.byIno[ino]
	if !ok {
		return fsapi.Stat{}, fsapi.ErrNotExist
	}
	return fsapi.Stat{Ino: ino, Type: fsapi.TypeFile, Size: int64(len(f.files[name])), Nlink: 1}, nil
}

func (f *toyFS) SetAttr(t *kernel.Task, ino fsapi.Ino, size int64) error {
	name, ok := f.byIno[ino]
	if !ok {
		return fsapi.ErrNotExist
	}
	data := f.files[name]
	if int64(len(data)) > size {
		f.files[name] = data[:size]
	} else {
		f.files[name] = append(data, make([]byte, size-int64(len(data)))...)
	}
	return nil
}

func (f *toyFS) Create(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	if _, dup := f.inos[name]; dup {
		return fsapi.Stat{}, fsapi.ErrExist
	}
	ino := f.next
	f.next++
	f.inos[name] = ino
	f.byIno[ino] = name
	f.files[name] = nil
	return fsapi.Stat{Ino: ino, Type: fsapi.TypeFile, Nlink: 1}, nil
}

func (f *toyFS) Mkdir(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	return fsapi.Stat{}, fsapi.ErrNotSupported
}

func (f *toyFS) Unlink(t *kernel.Task, parent fsapi.Ino, name string) error {
	ino, ok := f.inos[name]
	if !ok {
		return fsapi.ErrNotExist
	}
	delete(f.inos, name)
	delete(f.byIno, ino)
	delete(f.files, name)
	return nil
}

func (f *toyFS) Rmdir(t *kernel.Task, parent fsapi.Ino, name string) error {
	return fsapi.ErrNotSupported
}

func (f *toyFS) Rename(t *kernel.Task, op fsapi.Ino, on string, np fsapi.Ino, nn string) error {
	ino, ok := f.inos[on]
	if !ok {
		return fsapi.ErrNotExist
	}
	delete(f.inos, on)
	f.inos[nn] = ino
	f.byIno[ino] = nn
	f.files[nn] = f.files[on]
	delete(f.files, on)
	return nil
}

func (f *toyFS) Link(t *kernel.Task, ino fsapi.Ino, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	return fsapi.Stat{}, fsapi.ErrNotSupported
}

func (f *toyFS) Open(*kernel.Task, fsapi.Ino) error    { return nil }
func (f *toyFS) Release(*kernel.Task, fsapi.Ino) error { return nil }

func (f *toyFS) Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error) {
	name, ok := f.byIno[ino]
	if !ok {
		return 0, fsapi.ErrNotExist
	}
	data := f.files[name]
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(buf, data[off:]), nil
}

func (f *toyFS) Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error) {
	name, ok := f.byIno[ino]
	if !ok {
		return 0, fsapi.ErrNotExist
	}
	cur := f.files[name]
	end := off + int64(len(data))
	if int64(len(cur)) < end {
		cur = append(cur, make([]byte, end-int64(len(cur)))...)
	}
	copy(cur[off:], data)
	f.files[name] = cur
	return len(data), nil
}

func (f *toyFS) Fsync(*kernel.Task, fsapi.Ino, bool) error { return nil }
func (f *toyFS) SyncFS(*kernel.Task) error                 { return nil }

func (f *toyFS) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	var out []fsapi.DirEntry
	for name, ino := range f.inos {
		out = append(out, fsapi.DirEntry{Name: name, Ino: ino, Type: fsapi.TypeFile})
	}
	return out, nil
}

// toyState is the serialized in-memory state for §4.8 transfers.
type toyState struct {
	Files map[string][]byte
	Inos  map[string]fsapi.Ino
	Next  fsapi.Ino
}

func (f *toyFS) PrepareTransfer(t *kernel.Task) ([]byte, error) {
	return json.Marshal(toyState{Files: f.files, Inos: f.inos, Next: f.next})
}

func (f *toyFS) RestoreTransfer(t *kernel.Task, state []byte) error {
	var s toyState
	if err := json.Unmarshal(state, &s); err != nil {
		return err
	}
	f.files = s.Files
	f.inos = s.Inos
	f.next = s.Next
	f.byIno = make(map[fsapi.Ino]string, len(s.Inos))
	for name, ino := range s.Inos {
		f.byIno[ino] = name
	}
	return nil
}

var (
	_ core.FileSystem = (*toyFS)(nil)
	_ core.Upgradable = (*toyFS)(nil)
)

func mountToy(t *testing.T) (*kernel.Kernel, *kernel.Mount, *kernel.Task) {
	t.Helper()
	k := kernel.New(costmodel.Default())
	if err := core.Register(k, "toyfs", func() core.FileSystem { return newToyFS(1) }); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: costmodel.Default()})
	m, err := k.Mount(task, "toyfs", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, task
}

func TestBentoFSEndToEnd(t *testing.T) {
	_, m, task := mountToy(t)
	want := bytes.Repeat([]byte("bento"), 3000) // crosses several pages
	if err := m.WriteFile(task, "/data", want); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/data")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip through BentoFS corrupted data")
	}
}

func TestBentoFSIsBatchWriter(t *testing.T) {
	_, m, _ := mountToy(t)
	if _, ok := m.FS().(kernel.BatchWriter); !ok {
		t.Fatal("BentoFS must implement the batched writepages path")
	}
}

func TestUpgradePreservesStateAndBumpsGeneration(t *testing.T) {
	_, m, task := mountToy(t)
	if err := m.WriteFile(task, "/keep", []byte("survives upgrade")); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	b := m.FS().(*core.BentoFS)
	if b.Generation() != 0 {
		t.Fatalf("generation = %d before upgrade", b.Generation())
	}
	if err := b.Upgrade(task, newToyFS(2)); err != nil {
		t.Fatal(err)
	}
	if b.Generation() != 1 {
		t.Fatalf("generation = %d after upgrade", b.Generation())
	}
	if b.Inner().BentoName() != "toyfs-v2" {
		t.Fatalf("inner = %s", b.Inner().BentoName())
	}
	got, err := m.ReadFile(task, "/keep")
	if err != nil || string(got) != "survives upgrade" {
		t.Fatalf("after upgrade: %q, %v", got, err)
	}
	// The file system keeps working for new files.
	if err := m.WriteFile(task, "/new", []byte("post-upgrade")); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWithOpenFile(t *testing.T) {
	// The paper's goal: applications need not restart. An open file
	// descriptor must keep working across the swap.
	k, m, task := mountToy(t)
	_ = k
	f, err := m.Open(task, "/live", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(task, []byte("before ")); err != nil {
		t.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	b := m.FS().(*core.BentoFS)
	if err := b.Upgrade(task, newToyFS(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(task, []byte("after")); err != nil {
		t.Fatalf("write on pre-upgrade fd: %v", err)
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/live")
	if err != nil || string(got) != "before after" {
		t.Fatalf("contents = %q, err %v", got, err)
	}
}

// TestUpgradeUnderConcurrentLoad swaps the module three times while four
// writers keep rewriting their files. All five run under one
// vclock.Group, and the operator swaps once the writers are a quarter,
// a half and three quarters through, so each Upgrade lands at a fixed
// point of the writers' virtual timeline: writes are served before,
// between and after the swaps, none fails, every file ends with its
// last write, and the whole scenario replays exactly.
func TestUpgradeUnderConcurrentLoad(t *testing.T) {
	const writers, iters = 4, 60
	run := func() (writesAtSwap [3]int64, elapsed time.Duration) {
		k, m, task := mountToy(t)
		b := m.FS().(*core.BentoFS)
		var written int64 // written by admitted workers only, so no lock
		g := vclock.NewGroup(task.Clk.Now())
		g.Run(writers+1, func(i int, w *vclock.Worker) {
			wt := k.NewTaskWithClock(fmt.Sprintf("w%d", i), w.Clock())
			if i == writers { // the operator
				for gen := 2; gen <= 4; gen++ {
					for written < int64((gen-1)*writers*iters/4) {
						wt.Clk.Advance(wt.Model().SyscallCrossing)
						w.Yield()
					}
					writesAtSwap[gen-2] = written
					if err := b.Upgrade(wt, newToyFS(gen)); err != nil {
						t.Errorf("upgrade to v%d: %v", gen, err)
						return
					}
				}
				return
			}
			path := fmt.Sprintf("/w%d", i)
			for n := 0; n < iters; n++ {
				w.Yield()
				if err := m.WriteFile(wt, path, []byte(fmt.Sprintf("iter-%d", n))); err != nil {
					t.Errorf("worker %d iter %d: %v", i, n, err)
					return
				}
				written++
			}
		})
		if b.Generation() != 3 {
			t.Fatalf("generation = %d, want 3", b.Generation())
		}
		if !(0 < writesAtSwap[0] && writesAtSwap[0] < writesAtSwap[1] && writesAtSwap[1] < writesAtSwap[2] && writesAtSwap[2] < written) {
			t.Fatalf("writes done at the three swaps %v, at the end %d: the swaps did not land under load", writesAtSwap, written)
		}
		for i := 0; i < writers; i++ {
			got, err := m.ReadFile(task, fmt.Sprintf("/w%d", i))
			if want := fmt.Sprintf("iter-%d", iters-1); err != nil || string(got) != want {
				t.Fatalf("/w%d = %q, %v; want %q", i, got, err, want)
			}
		}
		return writesAtSwap, g.Elapsed()
	}
	writes, elapsed := run()
	if w2, e2 := run(); w2 != writes || e2 != elapsed {
		t.Fatalf("replay differs: swaps at writes %v in %v vs %v in %v", w2, e2, writes, elapsed)
	}
}

func TestUnmountReportsLeaks(t *testing.T) {
	// A file system that leaks a buffer must be caught at unmount by the
	// ownership checker.
	k := kernel.New(costmodel.Default())
	leaky := &leakyFS{toyFS: newToyFS(1)}
	if err := core.Register(k, "leaky", func() core.FileSystem { return leaky }); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("t")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: costmodel.Default()})
	if _, err := k.Mount(task, "leaky", "/mnt", dev); err != nil {
		t.Fatal(err)
	}
	if err := k.Unmount(task, "/mnt"); err == nil {
		t.Fatal("unmount of leaky module reported no error")
	}
}

// leakyFS grabs a buffer in Init and never releases it.
type leakyFS struct{ *toyFS }

func (l *leakyFS) Init(t *kernel.Task, sb bentoks.Disk) error {
	if err := l.toyFS.Init(t, sb); err != nil {
		return err
	}
	_, err := sb.BRead(t, 1) // leaked on purpose
	return err
}
