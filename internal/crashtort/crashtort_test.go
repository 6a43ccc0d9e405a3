package crashtort

import (
	"reflect"
	"strings"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/oplist"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
)

// TestSweepAllVariantsRecover is the tentpole acceptance check: every
// crash point of the torture workload, on every variant, at both cache
// extremes, must recover with the oracle, the tree walk, and fsck all
// clean. Under -short only the adversarial cache is swept.
func TestSweepAllVariantsRecover(t *testing.T) {
	keeps := []float64{0, 1}
	if testing.Short() {
		keeps = []float64{0}
	}
	for _, v := range AllVariants {
		for _, keep := range keeps {
			res, err := Sweep(Config{Variant: v, Keep: keep})
			if err != nil {
				t.Fatalf("%s keep=%g: %v", v, keep, err)
			}
			if res.Points == 0 {
				t.Fatalf("%s keep=%g: swept no crash points", v, keep)
			}
			for _, f := range res.Failures {
				t.Errorf("%s: %s", f.Point.ID(), f.Err)
			}
			t.Logf("%s keep=%g: %d crash points recovered", v, keep, res.Points)
		}
	}
}

// TestSweepHalfKeep sweeps every variant with a cache that keeps half
// of the unflushed writes at the cut: a commit record can then survive
// while one of its log slots, or the clear of an earlier record, is
// lost, which neither extreme shows. Every crash point must recover.
func TestSweepHalfKeep(t *testing.T) {
	for _, v := range AllVariants {
		res, err := Sweep(Config{Variant: v, Keep: 0.5})
		if err != nil {
			t.Fatalf("%s keep=0.5: %v", v, err)
		}
		if res.Points == 0 {
			t.Fatalf("%s keep=0.5: swept no crash points", v)
		}
		for _, f := range res.Failures {
			t.Errorf("%s: %s", f.Point.ID(), f.Err)
		}
	}
}

// TestBrokenOrderingCaught is the fuzzer's self-test: with the write
// ordering discipline stripped (PolicyWriteBack) and an adversarial
// cache, fsync'd data must be lost at some crash points — if this sweep
// passes, the harness has lost the ability to detect broken journal
// ordering. The first failure must also replay bit-for-bit from its
// Point alone.
func TestBrokenOrderingCaught(t *testing.T) {
	cfg := Config{Variant: Bento, Keep: 0, NoBarriers: true}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatalf("broken write ordering swept %d points with zero failures", res.Points)
	}
	t.Logf("broken ordering caught at %d/%d points", len(res.Failures), res.Points)

	f := res.Failures[0]
	p, err := ParseID(f.Point.ID())
	if err != nil {
		t.Fatalf("round-trip of %q: %v", f.Point.ID(), err)
	}
	if p != f.Point {
		t.Fatalf("ParseID(%q) = %+v, want %+v", f.Point.ID(), p, f.Point)
	}
	replayErr := RunPoint(Config{Variant: p.Variant, Keep: p.Keep, NoBarriers: p.NoBarriers}, p.K)
	if replayErr == nil {
		t.Fatalf("replay of failing point %s recovered", f.Point.ID())
	}
	if replayErr.Error() != f.Err {
		t.Fatalf("replay of %s: %q, sweep said %q", f.Point.ID(), replayErr, f.Err)
	}
}

// TestSweepDeterministic runs the same failing sweep twice: the crash
// point count and the exact failure list (ids and messages) must match,
// or failures would not be reproducible from a CI log.
func TestSweepDeterministic(t *testing.T) {
	cfg := Config{Variant: VFS, Keep: 0, NoBarriers: true}
	first, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("sweeps differ:\nrun1: %d points %d failures\nrun2: %d points %d failures",
			first.Points, len(first.Failures), second.Points, len(second.Failures))
	}
}

// TestParseIDErrors rejects malformed point ids and well-formed ones
// that name a point no sweep produces: k below 1, keep outside [0, 1].
func TestParseIDErrors(t *testing.T) {
	for _, id := range []string{
		"", "bento", "bento/k=1", "zfs/k=1/keep=0", "bento/x=1/keep=0",
		"bento/k=one/keep=0", "bento/k=1/keep=x", "bento/k=1/keep=0/bogus",
		"bento/k=1/keep=0/nobarriers/extra",
		"bento/k=0/keep=0", "vfs/k=-3/keep=1", "bento/k=1/keep=2",
		"ext4/k=1/keep=-0.5", "bento/k=1/keep=NaN", "bento/k=1/keep=+Inf",
	} {
		if _, err := ParseID(id); err == nil {
			t.Errorf("ParseID(%q) accepted", id)
		}
	}
	for _, id := range []string{"bento/k=1/keep=0", "vfs/k=17/keep=0.25", "ext4/k=3/keep=1/nobarriers", "fuse/k=9/keep=0"} {
		p, err := ParseID(id)
		if err != nil {
			t.Errorf("ParseID(%q): %v", id, err)
		} else if p.ID() != id {
			t.Errorf("ParseID(%q).ID() = %q", id, p.ID())
		}
	}
}

// TestInvalidConfigRejected: Sweep and RunPoint refuse, before any
// mount, a configuration whose report would mislabel what ran — a keep
// Device.Crash would clamp, an unknown variant, or a crash point before
// the first command.
func TestInvalidConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		k    int64
		want string
	}{
		{"keep above 1", Config{Variant: Bento, Keep: 7}, 1, "keep=7 outside [0, 1]"},
		{"keep below 0", Config{Variant: VFS, Keep: -0.5}, 1, "keep=-0.5 outside [0, 1]"},
		{"unknown variant", Config{Variant: "zfs"}, 1, `unknown variant "zfs"`},
		{"k zero", Config{Variant: Ext4}, 0, "k=0 names no command"},
		{"k negative", Config{Variant: Bento, Keep: 1}, -2, "k=-2 names no command"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := RunPoint(tc.cfg, tc.k)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunPoint = %v, want an error mentioning %q", err, tc.want)
			}
			if tc.k < 1 {
				return // a sweep picks its own k
			}
			if _, err := Sweep(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Sweep = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestMidUpgradeCrashRecovery cuts power inside the live-upgrade
// protocol itself, at every write-class command of its quiesce window,
// and requires the pre-upgrade fsync'd state to survive recovery. The
// upgrade's durability story is the journal's: quiesce is a forced
// commit, so a crash at any point inside it must land on a state the
// ordinary mount-time recovery handles.
func TestMidUpgradeCrashRecovery(t *testing.T) {
	cfg := Config{Variant: Bento}
	cfg.defaults()
	const pre = "/pre"
	preData := oplist.Content('p', 0, 2048)
	setup := func() (*blockdev.Device, *kernel.Task, *core.BentoFS) {
		dev, err := newDev(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, task, err := mount(cfg, dev, true)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty, unsynced state gives the quiesce real flush work.
		ops := mustParse("put "+pre+" 2048 p", "fsync "+pre, "put /dirty 3072 d")
		if err := script(m, task, dev, newOracle(), ops); err != nil {
			t.Fatal(err)
		}
		return dev, task, m.FS().(*core.BentoFS)
	}

	// Golden run fixes the upgrade window's command count.
	dev, task, shim := setup()
	// The replacement runs the module the sweep's config mounted.
	next := func(shim *core.BentoFS) *bentoimpl.FS {
		return bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())
	}
	w0 := dev.WriteCmds()
	if err := shim.Upgrade(task, next(shim)); err != nil {
		t.Fatal(err)
	}
	n := dev.WriteCmds() - w0
	if n == 0 {
		t.Fatal("upgrade issued no device writes; nothing to torture")
	}
	t.Logf("upgrade window: %d write-class commands", n)

	for k := int64(1); k <= n; k++ {
		dev, task, shim := setup()
		dev.ArmPowerCut(k)
		_ = shim.Upgrade(task, next(shim)) // dies with the power at some point
		if !dev.PowerOut() {
			t.Fatalf("k=%d: cut never tripped inside the upgrade", k)
		}
		dev.Crash(0, k)
		dev.DisarmPowerCut()
		m2, task2, err := mount(cfg, dev, false)
		if err != nil {
			t.Fatalf("k=%d: recovery mount: %v", k, err)
		}
		got, err := m2.ReadFile(task2, pre)
		if err != nil || string(got) != string(preData) {
			t.Fatalf("k=%d: pre-upgrade file: %d bytes, %v", k, len(got), err)
		}
		if st, err := m2.Stat(task2, pre); err != nil || st.Type != fsapi.TypeFile {
			t.Fatalf("k=%d: pre-upgrade stat: %+v, %v", k, st, err)
		}
		rep, err := layout.Fsck(task2.Clk, dev)
		if err != nil {
			t.Fatalf("k=%d: fsck: %v", k, err)
		}
		if !rep.OK() {
			t.Fatalf("k=%d: fsck: %v", k, rep.Errors)
		}
	}
}

// TestOracleRules checks each op kind's rule on an oracle that holds a
// synced file /f, an unsynced file /d/e in the unsynced directory /d, an
// unsynced empty directory /n and a pending deletion /x: what the op
// voids, what it earns when it returns with the power on, and that the
// op at which the power went out earns nothing.
func TestOracleRules(t *testing.T) {
	for _, tc := range []struct {
		op       string
		earned   bool
		want     string // want's keys after the op
		wantDirs string
		deleted  string
		gone     string
	}{
		{"put /f 10 g", false, "", "/", "/x", ""},
		{"put /f 10 g", true, "", "/", "/x", ""},
		{"put /x 10 g", true, "/f", "/", "", ""},
		{"fsync /d/e", false, "/f", "/", "/x", ""},
		{"fsync /d/e", true, "/d/e /f", "/ /d", "/x", ""},
		{"mkdir /n", true, "/f", "/", "/x", ""},
		{"rm /f", false, "", "/", "/x", ""},
		{"rm /f", true, "", "/", "/f /x", ""},
		{"mv /f /d/e", false, "", "/", "/x", ""},
		{"mv /f /d/e", true, "", "/", "/f /x", ""},
		{"sync", false, "/f", "/", "/x", ""},
		{"sync", true, "/d/e /f", "/ /d /n", "", "/x"},
	} {
		o := newOracle()
		o.cur["/f"], o.want["/f"], o.wantDirs["/"] = "f", "f", struct{}{}
		o.cur["/d/e"] = "e"
		o.curDirs["/d"], o.curDirs["/n"] = struct{}{}, struct{}{}
		o.deleted["/x"] = struct{}{}
		o.step(mustParse(tc.op)[0], tc.earned)
		for _, m := range []struct{ name, got, want string }{
			{"want", strings.Join(sortedKeys(o.want), " "), tc.want},
			{"wantDirs", strings.Join(sortedKeys(o.wantDirs), " "), tc.wantDirs},
			{"deleted", strings.Join(sortedKeys(o.deleted), " "), tc.deleted},
			{"gone", strings.Join(sortedKeys(o.gone), " "), tc.gone},
		} {
			if m.got != m.want {
				t.Errorf("%q earned=%v: %s = [%s], want [%s]", tc.op, tc.earned, m.name, m.got, m.want)
			}
		}
		if tc.earned && tc.op == "fsync /d/e" && o.want["/d/e"] != "e" {
			t.Errorf("fsync promoted /d/e as %q, want its current contents", o.want["/d/e"])
		}
	}
}

// TestWorkloadRoundTrips: the torture workload prints in fsshell syntax
// and parses back to itself, so docs and failure reports can show it as
// text.
func TestWorkloadRoundTrips(t *testing.T) {
	for _, op := range workload {
		got, err := oplist.Parse(op.String())
		if err != nil || got != op {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", op, got, err, op)
		}
	}
}
