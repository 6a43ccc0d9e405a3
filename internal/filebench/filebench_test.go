package filebench_test

import (
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/filebench"
	"bento/internal/kernel"
	"bento/internal/memfs"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// memTarget mounts memfs (cheap, deterministic) for workload-logic tests.
func memTarget(t *testing.T) filebench.Target {
	t.Helper()
	k := kernel.New(costmodel.Fast())
	if err := k.Register(memfs.Type{}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("mount")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 64, Model: costmodel.Fast()})
	m, err := k.Mount(task, "memfs", "/", dev)
	if err != nil {
		t.Fatal(err)
	}
	return filebench.Target{K: k, M: m}
}

// xv6Target mounts the real xv6 for workloads needing durability calls.
func xv6Target(t *testing.T) filebench.Target {
	t.Helper()
	model := costmodel.Fast()
	k := kernel.New(model)
	dev := blockdev.MustNew(blockdev.Config{Blocks: 32768, Model: model})
	if _, err := layout.Mkfs(vclock.NewClock(), dev, 4096); err != nil {
		t.Fatal(err)
	}
	if err := bentoimpl.RegisterWith(k, "xv6", bentoimpl.Config{}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("mount")
	m, err := k.Mount(task, "xv6", "/", dev)
	if err != nil {
		t.Fatal(err)
	}
	return filebench.Target{K: k, M: m}
}

func TestReadMicroCountsOpsAndBytes(t *testing.T) {
	tg := memTarget(t)
	res, err := filebench.ReadMicro(tg, filebench.MicroConfig{
		Threads: 2, IOSize: 4096, FileSize: 1 << 20, Duration: 5 * time.Millisecond, MaxOps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errs != 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Bytes != res.Ops*4096 {
		t.Fatalf("bytes %d != ops %d * 4096", res.Bytes, res.Ops)
	}
	if res.OpsPerSec() <= 0 || res.MBps() <= 0 {
		t.Fatalf("rates: %s", res)
	}
}

func TestReadMicroRandomVsSequentialSameCache(t *testing.T) {
	tg := memTarget(t)
	for _, random := range []bool{false, true} {
		res, err := filebench.ReadMicro(tg, filebench.MicroConfig{
			Threads: 1, IOSize: 32 << 10, FileSize: 1 << 20,
			Random: random, Duration: 5 * time.Millisecond, MaxOps: 50, Seed: 9,
		})
		if err != nil || res.Ops == 0 {
			t.Fatalf("random=%v: %v %+v", random, err, res)
		}
	}
}

func TestWriteMicroProducesDurableFiles(t *testing.T) {
	tg := xv6Target(t)
	res, err := filebench.WriteMicro(tg, filebench.MicroConfig{
		Threads: 2, IOSize: 8192, FileSize: 256 << 10, Duration: 5 * time.Millisecond, MaxOps: 64,
	})
	if err != nil || res.Errs != 0 {
		t.Fatalf("%v %+v", err, res)
	}
	task := tg.K.NewTask("check")
	st, err := tg.M.Stat(task, "/writefile0")
	if err != nil || st.Size == 0 {
		t.Fatalf("working file: %+v %v", st, err)
	}
}

func TestCreateDeleteWorkloads(t *testing.T) {
	tg := xv6Target(t)
	cres, err := filebench.CreateFiles(tg, filebench.MetaConfig{
		Threads: 2, Duration: 5 * time.Millisecond, MaxOps: 40,
	})
	if err != nil || cres.Ops == 0 || cres.Bytes != cres.Ops*16<<10 {
		t.Fatalf("create: %v %+v", err, cres)
	}
	dres, err := filebench.DeleteFiles(tg, filebench.MetaConfig{
		Threads: 2, Files: 30, Duration: 50 * time.Millisecond,
	})
	if err != nil || dres.Ops != 60 {
		t.Fatalf("delete: %v %+v", err, dres)
	}
	// Deleted tree must really be gone.
	task := tg.K.NewTask("check")
	ents, err := tg.M.ReadDir(task, "/delete0")
	if err != nil || len(ents) != 0 {
		t.Fatalf("remaining entries: %v %v", ents, err)
	}
}

func TestVarmailRuns(t *testing.T) {
	tg := xv6Target(t)
	res, err := filebench.Varmail(tg, filebench.MacroConfig{
		Threads: 4, Files: 8, Duration: 5 * time.Millisecond, MaxOps: 30,
	})
	if err != nil || res.Errs != 0 || res.Ops == 0 {
		t.Fatalf("%v %+v", err, res)
	}
}

func TestFileserverRuns(t *testing.T) {
	tg := xv6Target(t)
	res, err := filebench.Fileserver(tg, filebench.MacroConfig{
		Threads: 4, Files: 4, Duration: 5 * time.Millisecond, MaxOps: 20,
	})
	if err != nil || res.Errs != 0 || res.Ops == 0 {
		t.Fatalf("%v %+v", err, res)
	}
}

func TestUntarBuildsTreeAndIsConsistent(t *testing.T) {
	tg := xv6Target(t)
	res, err := filebench.Untar(tg, 6)
	if err != nil || res.Errs != 0 {
		t.Fatalf("%v %+v", err, res)
	}
	wantOps := int64(6 + 6*18) // dirs + 18 files per directory
	if res.Ops != wantOps {
		t.Fatalf("ops = %d, want %d", res.Ops, wantOps)
	}
	task := tg.K.NewTask("check")
	ents, err := tg.M.ReadDir(task, "/linux/dir0003")
	if err != nil || len(ents) != 18 {
		t.Fatalf("tree: %v %v", ents, err)
	}
	rep, err := layout.Fsck(task.Clk, tg.M.Device())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after untar: %v", rep.Errors)
	}
}
