package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/ext4"
	"bento/internal/filebench"
	"bento/internal/fsapi"
	"bento/internal/fuse"
	"bento/internal/harness"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/netstore"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/bentoimpl"
	"bento/internal/xv6/layout"
	"bento/internal/xv6/vfsimpl"
)

// variantKeys are the metric-name suffixes, in harness.AllVariants order.
var variantKeys = []string{"bento", "ckernel", "fuse", "ext4"}

// options is harness.Quick() with only the backend varied (and, in the
// tests, a smaller device).
func (w *workload) options() harness.Options {
	o := harness.Quick()
	o.Backend = w.backend
	if w.devBlocks > 0 {
		o.DevBlocks, o.NInodes = w.devBlocks, w.inodes
	}
	return o
}

// newTracedTarget rebuilds harness.NewTarget's configuration by hand with
// the S2/S3 seams interposed and a trace.Recorder attached. It cannot go
// through NewTarget (which takes no hooks), so the run asserts that its
// simulated results equal the untraced ones bit for bit.
func newTracedTarget(variant string, o harness.Options, tr *tracer) (filebench.Target, *trace.Recorder, error) {
	var none filebench.Target
	model := o.Model
	k := kernel.New(model)
	rec := trace.New()
	k.SetRecorder(rec)
	var be blockdev.Backend
	switch o.Backend {
	case harness.BackendLocal:
		be = blockdev.NewLocalBackend("nvme0", 4096, model)
	case harness.BackendNetstore:
		be = netstore.New(netstore.Config{Name: "net0", BlockSize: 4096, Blocks: o.DevBlocks, Model: model})
	default:
		return none, nil, fmt.Errorf("unknown backend %q", o.Backend)
	}
	dev, err := blockdev.New(blockdev.Config{Blocks: o.DevBlocks, Model: model, Backend: &backendSeam{Backend: be, tr: tr}})
	if err != nil {
		return none, nil, err
	}
	dev.SetRecorder(rec)
	task := k.NewTask("mount")

	mkfs := func() error {
		_, err := layout.Mkfs(vclock.NewClock(), dev, o.NInodes)
		return err
	}
	fstype, daemon := "", true
	switch variant {
	case harness.VariantBento:
		err = mkfs()
		if err == nil {
			fstype = "xv6"
			err = core.Register(k, fstype, func() core.FileSystem {
				return wrapCoreFS(bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyWriteBack, DataBypass: true}), tr)
			})
		}
	case harness.VariantCKernel:
		err = mkfs()
		if err == nil {
			fstype = "xv6vfs"
			err = k.Register(typeSeam{vfsimpl.Type{Cfg: vfsimpl.Config{DataBypass: true}}, tr, layerFS})
		}
	case harness.VariantFUSE:
		err = mkfs()
		if err == nil {
			fstype, daemon = "fuse", false
			err = k.Register(typeSeam{fuse.Type{Factory: func() core.FileSystem {
				return wrapCoreFS(bentoimpl.New(bentoimpl.Config{Policy: bentoimpl.PolicyFlush}), tr)
			}}, tr, layerFuse})
		}
	case harness.VariantExt4:
		err = ext4.Mkfs(task, dev, o.NInodes)
		if err == nil {
			fstype = "ext4"
			err = k.Register(typeSeam{ext4.Type{Cfg: ext4.Config{NoBarriers: true, DataBypass: true}}, tr, layerFS})
		}
	default:
		err = fmt.Errorf("unknown variant %q", variant)
	}
	if err != nil {
		return none, nil, err
	}
	m, err := k.Mount(task, fstype, "/", dev)
	if err != nil {
		return none, nil, err
	}
	if daemon {
		m.EnableIODaemon(iodaemon.Config{})
	}
	return filebench.Target{K: k, M: m}, rec, nil
}

// phaseStat is what one timed section measured.
type phaseStat struct {
	name   string
	hostNS int64
	// sliceNS splits hostNS at fixed op counts (see phaseSlices). Ops
	// complete in the same order every repetition, so slice i holds the
	// same work each time and can be compared across repetitions.
	sliceNS []int64
	startNS int64 // virtual
	endNS   int64 // virtual: the furthest client clock
	ops     int
	bytes   int64
}

// cellStat is one (repetition, variant) cell.
type cellStat struct {
	phases []phaseStat
	lat    []int64 // per-op virtual latency, all phases, client-major; dropped once summarized

	attempted, failed int
	firstErr          error

	newTargetNS, populateNS, dropNS, totalNS int64

	allocs, allocBytes uint64
	gcCycles           uint32
	heapInusePeak      uint64

	sim simSummary

	// traced cells only: recorder counter deltas over the timed sections,
	// and the exclusive-time sweep of the events that start inside them.
	counters  map[string]int64
	nEvents   int
	excl      map[string]int64
	exclTotal int64
}

func (c *cellStat) timedNS() (ns int64) {
	for _, p := range c.phases {
		ns += p.hostNS
	}
	return ns
}

func (c *cellStat) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// cell is the state of one running cell.
type cell struct {
	w    *workload
	data *content
	tg   filebench.Target
	tr   *tracer         // nil when untraced
	rec  *trace.Recorder // nil when untraced
	st   *cellStat

	// Slice marks of the running phase. Only the admitted client touches
	// them, and the scheduler's handoff orders one client after another.
	phaseStart         time.Time
	done, mark, stride int
	marks              []int64
}

// phaseSlices is how many host-time slices a phase is cut into.
const phaseSlices = 64

// runCell builds a fresh target, populates it, runs every phase, reads
// everything back, unmounts and, when fsck is set, checks the xv6 image.
// Only the phases are timed sections.
func runCell(w *workload, data *content, variant string, tr *tracer, fsck bool) (*cellStat, error) {
	st := &cellStat{}
	c := &cell{w: w, data: data, tr: tr, st: st}
	cellStart := time.Now()
	var err error
	if tr == nil {
		c.tg, err = harness.NewTarget(variant, w.options())
	} else {
		c.tg, c.rec, err = newTracedTarget(variant, w.options(), tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: new target: %w", variant, err)
	}
	st.newTargetNS = int64(time.Since(cellStart))

	t0 := time.Now()
	setup := c.tg.K.NewTask("setup")
	if err := c.populate(setup); err != nil {
		return nil, fmt.Errorf("%s: populate: %w", variant, err)
	}
	st.populateNS = int64(time.Since(t0))

	st.lat = make([]int64, 0, w.ops())
	at := setup.Clk.NowNS()
	for pi := range w.phases {
		ph := &w.phases[pi]
		if ph.dropCaches {
			t0 = time.Now()
			c.tg.M.DropCaches()
			st.dropNS += int64(time.Since(t0))
		}
		at = c.runPhase(pi, ph, at)
	}

	verify := c.tg.K.NewTaskWithClock("verify", vclock.NewClockAt(time.Duration(at)))
	for _, f := range w.final {
		st.attempted++
		if err := c.readBack(verify, f); err != nil {
			st.fail(fmt.Errorf("read back %s: %w", w.paths[f.path], err))
		}
	}
	if err := c.tg.K.Unmount(verify, "/"); err != nil {
		return nil, fmt.Errorf("%s: unmount: %w", variant, err)
	}
	if fsck && variant != harness.VariantExt4 {
		st.attempted++
		rep, err := layout.Fsck(verify.Clk, c.tg.M.Device())
		if err != nil {
			return nil, fmt.Errorf("%s: fsck: %w", variant, err)
		}
		if !rep.OK() {
			st.fail(fmt.Errorf("fsck: %d errors, first: %s", len(rep.Errors), rep.Errors[0]))
		}
	}
	st.totalNS = int64(time.Since(cellStart))

	// The benchmark's own bookkeeping, outside set-up time.
	st.sim = summarize(st)
	st.lat = nil
	if c.rec != nil {
		evs := timedEvents(c.rec.Events(), st.phases)
		st.nEvents = len(evs)
		if st.excl, st.exclTotal, err = exclusiveTime(evs); err != nil {
			return nil, fmt.Errorf("%s: %w", variant, err)
		}
	}
	return st, nil
}

func (c *cell) populate(t *kernel.Task) error {
	m := c.tg.M
	for _, d := range c.w.dirs {
		if err := m.Mkdir(t, d); err != nil {
			return err
		}
	}
	for _, f := range c.w.initial {
		fh, err := m.Open(t, c.w.paths[f.path], fsapi.OCreate|fsapi.ORdwr)
		if err != nil {
			return err
		}
		for off := int64(0); off < f.size; off += maxIO {
			n := int(min(maxIO, f.size-off))
			if _, err := fh.PWrite(t, c.data.at(f.file, off, n), off); err != nil {
				return err
			}
		}
		if err := m.Close(t, fh); err != nil {
			return err
		}
	}
	if err := m.Sync(t); err != nil {
		return err
	}
	if c.w.warm {
		for _, f := range c.w.initial {
			if err := c.readBack(t, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// readBack compares the whole of f against the content function.
func (c *cell) readBack(t *kernel.Task, f fileSpec) error {
	m := c.tg.M
	fh, err := m.Open(t, c.w.paths[f.path], fsapi.ORdonly)
	if err != nil {
		return err
	}
	defer m.Close(t, fh)
	if got := fh.Size(); got != f.size {
		return fmt.Errorf("size %d, want %d", got, f.size)
	}
	buf := make([]byte, maxIO)
	for off := int64(0); off < f.size; off += maxIO {
		want := c.data.at(f.file, off, int(min(maxIO, f.size-off)))
		n, err := fh.PRead(t, buf[:len(want)], off)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf[:n], want) {
			return fmt.Errorf("contents differ in [%d,%d)", off, off+int64(len(want)))
		}
	}
	return nil
}

// runPhase is the closed loop: every client issues its next op when the
// previous one returns, one goroutine running at any instant under the
// vclock scheduler. It returns the virtual time the phase ended.
func (c *cell) runPhase(pi int, ph *phase, startAt int64) int64 {
	n := len(ph.clients)
	sched := vclock.NewScheduler()
	clients := make([]*client, n)
	for i := range clients {
		clk := vclock.NewClockAt(time.Duration(startAt))
		ops := ph.clients[i]
		base := len(c.st.lat)
		c.st.lat = c.st.lat[:base+len(ops)]
		clients[i] = &client{
			cell: c, ops: ops, lat: c.st.lat[base : base+len(ops)],
			wk:   sched.Register(clk),
			task: c.tg.K.NewTaskWithClock(fmt.Sprintf("p%d-%s-c%d", pi, ph.name, i), clk),
			buf:  make([]byte, maxIO),
		}
	}
	before := c.rec.Counters()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if c.tr != nil {
		c.tr.on = true
	}
	total := 0
	for _, cl := range clients {
		total += len(cl.ops)
	}
	c.stride = (total + phaseSlices - 1) / phaseSlices
	c.done, c.mark, c.marks = 0, c.stride, make([]int64, 0, phaseSlices+1)
	c.phaseStart = time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			cl.run()
		}(cl)
	}
	wg.Wait()
	host := int64(time.Since(c.phaseStart))
	if c.tr != nil {
		c.tr.on = false
	}
	if c.done%c.stride != 0 {
		c.marks = append(c.marks, host)
	}
	for i := len(c.marks) - 1; i > 0; i-- {
		c.marks[i] -= c.marks[i-1]
	}
	runtime.ReadMemStats(&m1)

	ps := phaseStat{name: ph.name, hostNS: host, sliceNS: c.marks, startNS: startAt, endNS: startAt, ops: total}
	c.st.attempted += total
	for _, cl := range clients {
		ps.endNS = max(ps.endNS, cl.task.Clk.NowNS())
		ps.bytes += cl.bytes
		c.st.failed += cl.failed
		if cl.firstErr != nil && c.st.firstErr == nil {
			c.st.firstErr = cl.firstErr
		}
	}
	c.st.phases = append(c.st.phases, ps)
	c.st.allocs += m1.Mallocs - m0.Mallocs
	c.st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	c.st.gcCycles += m1.NumGC - m0.NumGC
	c.st.heapInusePeak = max(c.st.heapInusePeak, m1.HeapInuse)
	if c.rec != nil {
		if c.st.counters == nil {
			c.st.counters = map[string]int64{}
		}
		for k, v := range c.rec.Counters() {
			c.st.counters[k] += v - before[k]
		}
	}
	return ps.endNS
}

type client struct {
	cell  *cell
	ops   []op
	lat   []int64
	wk    *vclock.Worker
	task  *kernel.Task
	buf   []byte
	slots [256]*kernel.File

	bytes    int64
	failed   int
	firstErr error
}

func (cl *client) run() {
	c := cl.cell
	tr := c.tr
	if !cl.wk.Begin() {
		return
	}
	defer cl.wk.Done()
	clk := cl.task.Clk
	think := cl.task.Model().AppOpOverhead
	started := clk.NowNS()
	for i := range cl.ops {
		o := &cl.ops[i]
		if tr != nil {
			tr.yieldBegin()
		}
		cl.wk.Yield()
		if tr != nil {
			tr.yieldEnd()
		}
		cl.task.Charge(think)
		v0 := clk.NowNS()
		tok := -1
		if tr != nil {
			tok = tr.enter(layerKernel, opNames[o.kind])
		}
		err := cl.exec(o)
		if tr != nil {
			tr.exit(tok)
		}
		cl.lat[i] = clk.NowNS() - v0
		c.done++
		if c.done == c.mark {
			c.marks = append(c.marks, int64(time.Since(c.phaseStart)))
			c.mark += c.stride
		}
		if err != nil {
			cl.failed++
			if cl.firstErr == nil {
				cl.firstErr = fmt.Errorf("%s op %d (%s): %w", cl.task.Name, i, opNames[o.kind], err)
			}
		}
	}
	// The whole run as one worker span, as filebench records it: what no
	// nested span claims is the application's own time.
	c.rec.Span(cl.task.Name, trace.CatWorker, "run", started, clk.NowNS())
}

func (cl *client) exec(o *op) error {
	c := cl.cell
	m, t := c.tg.M, cl.task
	switch o.kind {
	case opOpen, opCreate:
		flags := fsapi.ORdwr
		if o.kind == opCreate {
			flags |= fsapi.OCreate | fsapi.OExcl
		}
		f, err := m.Open(t, c.w.paths[o.path], flags)
		if err != nil {
			return err
		}
		cl.slots[o.slot] = f
	case opClose:
		return m.Close(t, cl.slots[o.slot])
	case opRead:
		want := c.data.at(o.file, o.off, int(o.n))
		buf := cl.buf[:o.n]
		n, err := cl.slots[o.slot].PRead(t, buf, o.off)
		if err != nil {
			return err
		}
		cl.bytes += int64(n)
		if n != len(want) {
			return fmt.Errorf("read %d of %d bytes at %d", n, len(want), o.off)
		}
		// One word per page here; the full comparison runs untimed at
		// the end of the cell.
		for p := 0; p+8 <= n; p += fsapi.PageSize {
			if *(*[8]byte)(buf[p:]) != *(*[8]byte)(want[p:]) {
				return fmt.Errorf("contents differ at %d", o.off+int64(p))
			}
		}
	case opWrite:
		n, err := cl.slots[o.slot].PWrite(t, c.data.at(o.file, o.off, int(o.n)), o.off)
		if err != nil {
			return err
		}
		cl.bytes += int64(n)
		if n != int(o.n) {
			return fmt.Errorf("wrote %d of %d bytes at %d", n, o.n, o.off)
		}
	case opFsync:
		return cl.slots[o.slot].FSync(t)
	case opStat:
		st, err := m.Stat(t, c.w.paths[o.path])
		if err != nil {
			return err
		}
		if st.Size != o.off {
			return fmt.Errorf("stat size %d, want %d", st.Size, o.off)
		}
	case opUnlink:
		return m.Unlink(t, c.w.paths[o.path])
	}
	return nil
}

// timedEvents keeps the recorder events that start inside a timed section.
func timedEvents(evs []trace.Event, phases []phaseStat) []trace.Event {
	out := evs[:0]
	for _, e := range evs {
		for _, p := range phases {
			if e.Start >= p.startNS && e.Start < p.endNS {
				out = append(out, e)
				break
			}
		}
	}
	return out
}
