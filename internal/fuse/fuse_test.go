package fuse_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/fuse"
	"bento/internal/kernel"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// mountFuse mounts xv6 under FUSE on a fresh image. The kernel and the
// device share one trace recorder, which every task's Rec reports.
func mountFuse(t *testing.T) (*kernel.Kernel, *kernel.Mount, *kernel.Task, *blockdev.Device) {
	t.Helper()
	model := costmodel.Default()
	k := kernel.New(model)
	k.SetRecorder(trace.New())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	dev.SetRecorder(k.Recorder())
	clk := vclock.NewClock()
	if _, err := layout.Mkfs(clk, dev, 512); err != nil {
		t.Fatal(err)
	}
	// The daemon hosts the SAME xv6 implementation the Bento variant
	// uses; userspace durability demands the flush policy.
	ft := fuse.Type{Factory: func() core.FileSystem {
		return bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyFlush})
	}}
	if err := k.Register(ft); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("app")
	m, err := k.Mount(task, "fuse", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, task, dev
}

func TestErrnoMappingRoundTrip(t *testing.T) {
	for _, e := range []error{
		fsapi.ErrNotExist, fsapi.ErrExist, fsapi.ErrNotDir, fsapi.ErrIsDir,
		fsapi.ErrNotEmpty, fsapi.ErrNoSpace, fsapi.ErrInvalid, fsapi.ErrIO,
	} {
		code := fuse.ErrnoFor(fmt.Errorf("wrapped: %w", e))
		if code == 0 {
			t.Fatalf("%v mapped to success", e)
		}
		if back := fuse.ErrFromErrno(code); !errors.Is(back, e) {
			t.Fatalf("%v -> %d -> %v", e, code, back)
		}
	}
	if fuse.ErrnoFor(nil) != 0 {
		t.Fatal("nil error has nonzero errno")
	}
}

func TestFuseEndToEnd(t *testing.T) {
	_, m, task, dev := mountFuse(t)
	want := bytes.Repeat([]byte("fuse!"), 5000)
	if err := m.WriteFile(task, "/file", want); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile(task, "/file")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("round trip failed: %v", err)
	}
	if err := m.Mkdir(task, "/dir"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename(task, "/file", "/dir/file"); err != nil {
		t.Fatal(err)
	}
	ents, err := m.ReadDir(task, "/dir")
	if err != nil || len(ents) != 1 || ents[0].Name != "file" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := m.Sync(task); err != nil {
		t.Fatal(err)
	}
	rep, err := layout.Fsck(task.Clk, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck behind FUSE: %v", rep.Errors)
	}
}

func TestFuseErrnoAcrossTransport(t *testing.T) {
	_, m, task, _ := mountFuse(t)
	if _, err := m.Open(task, "/nope", fsapi.ORdonly); !errors.Is(err, fsapi.ErrNotExist) {
		t.Fatalf("missing file: %v", err)
	}
	if err := m.Mkdir(task, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(task, "/d/f", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Rmdir(task, "/d"); !errors.Is(err, fsapi.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
}

func TestFuseCountsRequests(t *testing.T) {
	_, m, task, _ := mountFuse(t)
	before := task.Rec().Counters()["fuse_requests"]
	if err := m.WriteFile(task, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if task.Rec().Counters()["fuse_requests"] <= before {
		t.Fatal("no requests crossed the transport")
	}
}

func TestFuseFsyncCostsFlush(t *testing.T) {
	// The defining FUSE penalty: fsync must FLUSH the device.
	model := costmodel.Default()
	_, m, task, _ := mountFuse(t)
	f, err := m.Open(task, "/f", fsapi.ORdwr|fsapi.OCreate)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	if _, err := f.Write(task, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	flushesBefore := task.Rec().Counters()["dev_flushes"]
	before := task.Clk.Now()
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
	if task.Rec().Counters()["dev_flushes"] <= flushesBefore {
		t.Fatal("FUSE fsync did not issue a device FLUSH")
	}
	if task.Clk.Now()-before < model.DevFlushBase {
		t.Fatalf("fsync cost %v < one FLUSH %v", task.Clk.Now()-before, model.DevFlushBase)
	}
}

func TestFuseSlowerThanBentoOnCreates(t *testing.T) {
	// Reproduce the Table 4 shape in miniature: creates through FUSE must
	// be at least an order of magnitude slower in virtual time.
	model := costmodel.Default()

	run := func(mount func(*testing.T) (*kernel.Mount, *kernel.Task)) int64 {
		m, task := mount(t)
		start := task.Clk.NowNS()
		for i := 0; i < 10; i++ {
			f, err := m.Open(task, fmt.Sprintf("/f%d", i), fsapi.OCreate|fsapi.OWronly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(task, bytes.Repeat([]byte("a"), 16<<10)); err != nil {
				t.Fatal(err)
			}
			if err := f.FSync(task); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(task, f); err != nil {
				t.Fatal(err)
			}
		}
		return task.Clk.NowNS() - start
	}

	fuseTime := run(func(t *testing.T) (*kernel.Mount, *kernel.Task) {
		_, m, task, _ := mountFuse(t)
		return m, task
	})
	bentoTime := run(func(t *testing.T) (*kernel.Mount, *kernel.Task) {
		k := kernel.New(model)
		dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
		clk := vclock.NewClock()
		if _, err := layout.Mkfs(clk, dev, 512); err != nil {
			t.Fatal(err)
		}
		if err := bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{}); err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("app")
		m, err := k.Mount(task, "xv6", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		return m, task
	})
	if fuseTime < 10*bentoTime {
		t.Fatalf("FUSE creates (%d ns) should be >=10x Bento (%d ns)", fuseTime, bentoTime)
	}
}

func TestSameCodeRunsInBothWorlds(t *testing.T) {
	// §4.9: the file system hosted by the FUSE daemon is literally the
	// same type as the one mounted through Bento.
	_, m, _, _ := mountFuse(t)
	drv := m.FS().(*fuse.Driver)
	if _, ok := drv.Session().FS().(*bentoimpl.FS); !ok {
		t.Fatalf("daemon hosts %T, want *bentoimpl.FS", drv.Session().FS())
	}
}

// leakyFS is the xv6 file system with one buffer leaked at Init.
type leakyFS struct{ *bentoimpl.FS }

func (l leakyFS) Init(t *kernel.Task, d bentoks.Disk) error {
	if err := l.FS.Init(t, d); err != nil {
		return err
	}
	_, err := d.BRead(t, 1)
	return err
}

// TestDestroyReportsHeldBuffers requires the daemon's DESTROY to fail
// while its file system still holds a buffer of the disk file, so
// Unmount fails: the FUSE rendering of the leak check BentoFS.Unmount
// runs through its ownership checker.
func TestDestroyReportsHeldBuffers(t *testing.T) {
	model := costmodel.Default()
	k := kernel.New(model)
	dev := blockdev.MustNew(blockdev.Config{Blocks: 8192, Model: model})
	if _, err := layout.Mkfs(vclock.NewClock(), dev, 512); err != nil {
		t.Fatal(err)
	}
	ft := fuse.Type{Factory: func() core.FileSystem {
		return leakyFS{bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyFlush})}
	}}
	if err := k.Register(ft); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("app")
	if _, err := k.Mount(task, "fuse", "/mnt", dev); err != nil {
		t.Fatal(err)
	}
	if err := k.Unmount(task, "/mnt"); !errors.Is(err, fsapi.ErrInvalid) {
		t.Fatalf("Unmount with a daemon buffer held returned %v, want EINVAL from DESTROY", err)
	}
}
