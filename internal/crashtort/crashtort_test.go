package crashtort

import (
	"reflect"
	"strings"
	"testing"

	"bento/internal/core"
	"bento/internal/fsapi"
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
	preData := content('p', 2048)
	setup := func() (*scriptCtx, *core.BentoFS) {
		dev, err := newDev(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, task, err := mount(cfg, dev, true)
		if err != nil {
			t.Fatal(err)
		}
		s := &scriptCtx{m: m, t: task, dev: dev, o: newOracle()}
		if err := s.writeSync(pre, preData); err != nil {
			t.Fatal(err)
		}
		// Dirty, unsynced state gives the quiesce real flush work.
		if err := s.write("/dirty", content('d', 3072)); err != nil {
			t.Fatal(err)
		}
		return s, m.FS().(*core.BentoFS)
	}

	// Golden run fixes the upgrade window's command count.
	s, shim := setup()
	// The replacement runs the module the sweep's config mounted.
	next := func(shim *core.BentoFS) *bentoimpl.FS {
		return bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())
	}
	w0 := s.dev.WriteCmds()
	if err := shim.Upgrade(s.t, next(shim)); err != nil {
		t.Fatal(err)
	}
	n := s.dev.WriteCmds() - w0
	if n == 0 {
		t.Fatal("upgrade issued no device writes; nothing to torture")
	}
	t.Logf("upgrade window: %d write-class commands", n)

	for k := int64(1); k <= n; k++ {
		s, shim := setup()
		s.dev.ArmPowerCut(k)
		_ = shim.Upgrade(s.t, next(shim)) // dies with the power at some point
		if !s.dev.PowerOut() {
			t.Fatalf("k=%d: cut never tripped inside the upgrade", k)
		}
		s.dev.Crash(0, k)
		s.dev.DisarmPowerCut()
		m2, task2, err := mount(cfg, s.dev, false)
		if err != nil {
			t.Fatalf("k=%d: recovery mount: %v", k, err)
		}
		got, err := m2.ReadFile(task2, pre)
		if err != nil || string(got) != preData {
			t.Fatalf("k=%d: pre-upgrade file: %d bytes, %v", k, len(got), err)
		}
		if st, err := m2.Stat(task2, pre); err != nil || st.Type != fsapi.TypeFile {
			t.Fatalf("k=%d: pre-upgrade stat: %+v, %v", k, st, err)
		}
		rep, err := layout.Fsck(task2.Clk, s.dev)
		if err != nil {
			t.Fatalf("k=%d: fsck: %v", k, err)
		}
		if !rep.OK() {
			t.Fatalf("k=%d: fsck: %v", k, rep.Errors)
		}
	}
}
