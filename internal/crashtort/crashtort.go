// Package crashtort is the systematic crash-point fuzzer: it runs a
// fixed, deterministic workload against a journaled file system and cuts
// device power at EVERY write-class command boundary — each journaled
// write, commit record, FLUSH barrier, and install step lands on some
// boundary — then proves the variant recovers from each resulting state.
//
// Enumeration model. Under the deterministic kernel and device
// simulation, the workload's stream of write-class device commands
// (writes and FLUSHes) is identical on every run, so "the k-th command"
// names the same on-disk moment every time. A crash point is the triple
// (variant, k, keep): blockdev.ArmPowerCut(k) makes the k-th command the
// last to succeed, the scripted workload runs until it hits
// blockdev.ErrPowerLoss, and blockdev.Crash(keep, k) then settles the
// volatile write cache — keep=0 is the adversarial cache (every
// unflushed write lost), keep=1 the friendly one. Sweep walks k across
// the whole workload; RunPoint replays one crash point bit-for-bit from
// its Point alone, which is what a failure report prints.
//
// Recovery proof. After the cut the device is remounted on a fresh
// kernel (journal recovery runs inside mount) and checked three ways:
// a logical oracle — every file whose fsync/sync returned before the cut
// must exist with exactly its synced contents, and every deletion
// covered by a sync must stay deleted; a full tree walk — every
// surviving entry must be readable; and a structural layout.Fsck (every
// variant's image is in the xv6 layout) must come back clean. Any violation is a
// Failure carrying the replayable Point.
//
// Every variant is mounted by harness.Mount, the builder the benchmark
// mounts through, with barriers on and the bypass off
// (docs/upgrade-and-crash.md tabulates what each variant mounts where).
// Config.NoBarriers turns the barriers off; a sweep then MUST produce
// failures at keep=0 — the self-test that the harness catches broken
// journal ordering (see cmd/crashtort -selftest).
package crashtort

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

// Variant names a file system under torture by its replay id.
type Variant string

// The variants the sweep covers.
const (
	Bento Variant = "bento"
	VFS   Variant = "vfs"
	Ext4  Variant = "ext4"
	FUSE  Variant = "fuse"
)

// AllVariants lists every variant Sweep covers.
var AllVariants = []Variant{Bento, VFS, Ext4, FUSE}

// harnessVariant maps each replay id onto the harness variant it mounts.
var harnessVariant = map[Variant]string{
	Bento: harness.VariantBento,
	VFS:   harness.VariantCKernel,
	Ext4:  harness.VariantExt4,
	FUSE:  harness.VariantFUSE,
}

// Config parameterizes a sweep.
type Config struct {
	Variant   Variant
	DevBlocks int              // device size in 4K blocks (default 4096)
	NInodes   uint32           // inode table size (default 512)
	Keep      float64          // volatile-cache retention at the cut, in [0, 1] (0 and 1 are the extremes)
	Model     *costmodel.Model // defaults to costmodel.Fast()

	// NoBarriers mounts the variant without FLUSH barriers
	// (harness.MountConfig.Barriers off). A keep=0 sweep must then fail —
	// the fuzzer's self-test.
	NoBarriers bool
}

func (c *Config) defaults() {
	if c.DevBlocks == 0 {
		c.DevBlocks = 4096
	}
	if c.NInodes == 0 {
		c.NInodes = 512
	}
	if c.Model == nil {
		c.Model = costmodel.Fast()
	}
}

// Point identifies one crash point; it is sufficient to replay the
// failure bit-for-bit with RunPoint.
type Point struct {
	Variant    Variant
	K          int64 // power cut after the K-th post-mount write-class command
	Keep       float64
	NoBarriers bool
}

// ID renders the point as the replay handle printed in failure reports,
// e.g. "bento/k=17/keep=0" — parseable back with ParseID.
func (p Point) ID() string {
	s := fmt.Sprintf("%s/k=%d/keep=%g", p.Variant, p.K, p.Keep)
	if p.NoBarriers {
		s += "/nobarriers"
	}
	return s
}

// ParseID parses an ID back into the Point it names. It accepts only
// points Sweep can produce: a known variant, k of at least 1 and keep in
// [0, 1].
func ParseID(id string) (Point, error) {
	parts := strings.Split(id, "/")
	if len(parts) < 3 {
		return Point{}, fmt.Errorf("crashtort: bad point id %q", id)
	}
	p := Point{Variant: Variant(parts[0])}
	k, ok := strings.CutPrefix(parts[1], "k=")
	if !ok {
		return Point{}, fmt.Errorf("crashtort: bad point id %q", id)
	}
	var err error
	if p.K, err = strconv.ParseInt(k, 10, 64); err != nil {
		return Point{}, fmt.Errorf("crashtort: bad point id %q: %w", id, err)
	}
	keep, ok := strings.CutPrefix(parts[2], "keep=")
	if !ok {
		return Point{}, fmt.Errorf("crashtort: bad point id %q", id)
	}
	if p.Keep, err = strconv.ParseFloat(keep, 64); err != nil {
		return Point{}, fmt.Errorf("crashtort: bad point id %q: %w", id, err)
	}
	if len(parts) > 3 {
		if parts[3] != "nobarriers" || len(parts) > 4 {
			return Point{}, fmt.Errorf("crashtort: bad point id %q", id)
		}
		p.NoBarriers = true
	}
	if err := (Config{Variant: p.Variant, Keep: p.Keep}).validate(); err != nil {
		return Point{}, fmt.Errorf("crashtort: bad point id %q: %w", id, err)
	}
	if p.K < 1 {
		return Point{}, fmt.Errorf("crashtort: bad point id %q: %w", id, errNoCommand(p.K))
	}
	return p, nil
}

// validate rejects a configuration whose results would not describe
// what ran: an unknown variant, or a Keep outside [0, 1], which
// Device.Crash would clamp while the report and the point ids carried
// the raw value.
func (c Config) validate() error {
	if _, ok := harnessVariant[c.Variant]; !ok {
		return fmt.Errorf("unknown variant %q (valid: bento, vfs, ext4, fuse)", c.Variant)
	}
	if !(c.Keep >= 0 && c.Keep <= 1) {
		return fmt.Errorf("keep=%g outside [0, 1]", c.Keep)
	}
	return nil
}

// errNoCommand rejects a crash point below k=1, which no sweep produces:
// ArmPowerCut(0) cuts power before the workload's first command.
func errNoCommand(k int64) error {
	return fmt.Errorf("k=%d names no command: the first write-class command is k=1", k)
}

// Failure is one crash point the variant did not recover from.
type Failure struct {
	Point Point
	Err   string
}

// Result summarizes one sweep.
type Result struct {
	Variant  Variant
	Keep     float64
	Points   int // crash points swept (= write-class commands in the workload)
	Failures []Failure
}

// OK reports whether every crash point recovered.
func (r Result) OK() bool { return len(r.Failures) == 0 }

// mount mounts cfg.Variant over dev on a fresh kernel through the
// harness's builder, barriers on unless cfg.NoBarriers and the bypass
// off (journal recovery runs inside the mount). format also mkfs's the
// device first. No background I/O daemon is attached: the scripted
// workload is single-task, so the device command stream is a pure
// function of the script.
func mount(cfg Config, dev *blockdev.Device, format bool) (*kernel.Mount, *kernel.Task, error) {
	k := kernel.New(cfg.Model)
	task := k.NewTask("crashtort")
	var ninodes uint32
	if format {
		ninodes = cfg.NInodes
	}
	m, err := harness.Mount(k, task, dev, harnessVariant[cfg.Variant],
		harness.MountConfig{Barriers: !cfg.NoBarriers}, ninodes)
	return m, task, err
}

func newDev(cfg Config) (*blockdev.Device, error) {
	return blockdev.New(blockdev.Config{Blocks: cfg.DevBlocks, Model: cfg.Model})
}

// Sweep enumerates every crash point of the scripted workload on
// cfg.Variant and reports the points that failed to recover. The golden
// run (no cut) fixes the workload's command count N; points 1..N then
// each replay the workload from scratch with the cut armed.
func Sweep(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, fmt.Errorf("crashtort: %w", err)
	}
	cfg.defaults()
	dev, err := newDev(cfg)
	if err != nil {
		return Result{}, err
	}
	m, task, err := mount(cfg, dev, true)
	if err != nil {
		return Result{}, fmt.Errorf("crashtort: golden mount %s: %w", cfg.Variant, err)
	}
	base := dev.WriteCmds()
	if err := script(m, task, dev, newOracle()); err != nil {
		return Result{}, fmt.Errorf("crashtort: golden run %s: %w", cfg.Variant, err)
	}
	n := dev.WriteCmds() - base
	if n <= 0 {
		return Result{}, fmt.Errorf("crashtort: golden run %s issued no write commands", cfg.Variant)
	}
	res := Result{Variant: cfg.Variant, Keep: cfg.Keep, Points: int(n)}
	for k := int64(1); k <= n; k++ {
		if err := RunPoint(cfg, k); err != nil {
			res.Failures = append(res.Failures, Failure{
				Point: Point{Variant: cfg.Variant, K: k, Keep: cfg.Keep, NoBarriers: cfg.NoBarriers},
				Err:   err.Error(),
			})
		}
	}
	return res, nil
}

// RunPoint replays one crash point: format, mount, arm the cut after k
// write-class commands, run the script until power fails, settle the
// write cache (seeded by k, so intermediate Keep fractions replay too),
// then remount and verify. A nil return means the variant recovered.
func RunPoint(cfg Config, k int64) error {
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("crashtort: %w", err)
	}
	if k < 1 {
		return fmt.Errorf("crashtort: %w", errNoCommand(k))
	}
	cfg.defaults()
	dev, err := newDev(cfg)
	if err != nil {
		return err
	}
	m, task, err := mount(cfg, dev, true)
	if err != nil {
		return fmt.Errorf("setup mount: %w", err)
	}
	dev.ArmPowerCut(k)
	o := newOracle()
	// The script ends at the cut: once the device reports power out, the
	// in-flight step earned no guarantee and nothing after it happened
	// (see scriptCtx.ok). Any error with power still on is a harness bug,
	// not a recovery verdict.
	if scriptErr := script(m, task, dev, o); scriptErr != nil && !dev.PowerOut() {
		return fmt.Errorf("script failed before power cut: %w", scriptErr)
	}
	dev.Crash(cfg.Keep, k)
	dev.DisarmPowerCut()
	return verify(cfg, dev, o)
}

// verify remounts dev on a fresh kernel and checks the recovered state:
// the oracle's guarantees, a full tree walk, and a structural fsck.
func verify(cfg Config, dev *blockdev.Device, o *oracle) error {
	m, task, err := mount(cfg, dev, false)
	if err != nil {
		return fmt.Errorf("recovery mount: %w", err)
	}
	// Sorted iteration: which violation is reported first must be as
	// reproducible as the crash point itself.
	for _, p := range sortedKeys(o.want) {
		want := o.want[p]
		got, err := m.ReadFile(task, p)
		if err != nil {
			return fmt.Errorf("synced file %s lost: %w", p, err)
		}
		if string(got) != want {
			return fmt.Errorf("synced file %s corrupted: %d bytes, want %d", p, len(got), len(want))
		}
	}
	for _, d := range sortedKeys(o.wantDirs) {
		st, err := m.Stat(task, d)
		if err != nil {
			return fmt.Errorf("synced dir %s lost: %w", d, err)
		}
		if st.Type != fsapi.TypeDir {
			return fmt.Errorf("synced dir %s is %v", d, st.Type)
		}
	}
	for _, p := range sortedKeys(o.gone) {
		if _, err := m.Stat(task, p); err == nil {
			return fmt.Errorf("synced deletion resurrected: %s exists", p)
		}
	}
	if err := walk(m, task, "/"); err != nil {
		return fmt.Errorf("tree walk: %w", err)
	}
	rep, err := layout.Fsck(task.Clk, dev)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %v", rep.Errors)
	}
	return nil
}

// sortedKeys returns m's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// walk reads every entry of the recovered tree: whatever survived the
// crash must at least be consistently readable.
func walk(m *kernel.Mount, t *kernel.Task, dir string) error {
	ents, err := m.ReadDir(t, dir)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", dir, err)
	}
	for _, e := range ents {
		if e.Name == "." || e.Name == ".." {
			continue
		}
		p := path.Join(dir, e.Name)
		switch e.Type {
		case fsapi.TypeDir:
			if err := walk(m, t, p); err != nil {
				return err
			}
		default:
			if _, err := m.ReadFile(t, p); err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
		}
	}
	return nil
}
