package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"bento/internal/filebench"
	"bento/internal/netstore"
)

// netfaultCond is one condition of the network-fault matrix: a latency
// preset plus a fault recipe. Each condition has its own fault seed so
// the decision streams of different conditions are decorrelated.
type netfaultCond struct {
	name   string
	preset netstorePreset
	faults netstore.FaultConfig
	outage bool // schedule a mid-run blackout (armed in nfRun)
}

// netfaultConds pins the published fault matrix. "clean" anchors the
// comparison (same preset as lossy-lan, faults off); the lossy points
// exercise retry and tail-latency absorption; "outage-recovery" runs a
// blackout across the middle half of the measurement window so the
// cells show degraded-mode serves during the outage and recovery after.
// Its policy constants (here and in options) shrink so the breaker's
// open → half-open → close cycle fits inside a quick cell's 60ms window:
// two attempts per request and a sub-millisecond backoff cap mean the
// breaker opens within a few milliseconds of the blackout and probes its
// way closed soon after it lifts.
var netfaultConds = []netfaultCond{
	{name: "clean", preset: netstorePresets[0], faults: netstore.FaultConfig{Seed: 101}},
	{name: "lossy-lan", preset: netstorePresets[0], faults: netstore.FaultConfig{Seed: 102, ErrProb: 0.02, TailMult: 4}},
	{name: "lossy-wan", preset: netstorePresets[1], faults: netstore.FaultConfig{Seed: 103, ErrProb: 0.05, TailMult: 4}},
	{name: "outage-recovery", preset: netstorePresets[0], outage: true,
		faults: netstore.FaultConfig{Seed: 104, MaxAttempts: 2, BreakerK: 2}},
}

// options specializes the base options for the condition.
func (c netfaultCond) options(o Options) Options {
	o = c.preset.options(o)
	o.Faults = c.faults
	if c.outage {
		// The preset's model is this call's own copy.
		o.Model.NetBackoffBase = 50 * time.Microsecond
		o.Model.NetBackoffCap = 200 * time.Microsecond
	}
	return o
}

// netfaultVariants is the row set: the paper's module against its FUSE
// baseline — the fault story is about the storage bottom, so two
// variants keep the matrix readable.
var netfaultVariants = []string{VariantBento, VariantFUSE}

// nfRun builds the memoized run of one (condition, workload, variant):
// the netstore target mounted, the blackout armed if the condition calls
// for one, and the workload executed with ErrIO-class failures tolerated
// (goodput accounting). Metrics are forced on so the result carries the
// counter snapshot the companion cells are derived from even in
// un-traced runs; the goodput cell drops it again unless o.Metrics.
//
// These are the only cells whose specs the runner does not mount
// directly: a condition publishes, per variant, its three goodput cells
// (each on its own fresh target) followed by their retries/degraded
// companions, and that record order is part of the byte-identical fence,
// so a companion cannot ride along in its goodput cell's result list.
// Goodput and companion specs (no Mount) share this memoized run instead,
// and the run itself goes through CellSpec.run like every other cell.
func nfRun(o Options, c netfaultCond, v string,
	workload func(tg filebench.Target, o Options, tolerateIO bool, pre func(int64)) (filebench.Result, error),
) func() (filebench.Result, error) {
	return sync.OnceValues(func() (filebench.Result, error) {
		no := c.options(o)
		no.Metrics = true
		rs, err := CellSpec{Experiment: ExpNetfaults, Variant: v, Mount: v, Opts: no,
			Run: func(tg filebench.Target) ([]filebench.Result, error) {
				var pre func(int64)
				if c.outage {
					// Armed at absolute virtual times once setup is done
					// (its length varies per workload).
					st := tg.M.Device().Backend().(*netstore.Store)
					d := int64(no.Duration)
					pre = func(startNS int64) {
						st.ArmOutage(startNS+d/4, startNS+3*d/4)
					}
				}
				r, err := workload(tg, no, true, pre)
				// Prefixed before the runner names the trace file, so
				// per-condition traces don't collide on the bare
				// workload name.
				r.Name = c.name + "-" + r.Name
				return single(r, err)
			}}.run()
		if err != nil {
			return filebench.Result{}, fmt.Errorf("%s: %w", c.name, err)
		}
		return rs[0], nil
	})
}

// nfCompanion is one companion cell: the counter of netWorkloads[wl]'s
// run, published under name as Ops over one virtual second.
type nfCompanion struct {
	name, counter string
	wl            int
}

// companions lists the condition's companion cells on variant v, in
// record order: per-workload net_retries under a lossy condition, and
// varmail's net_degraded under the outage.
func (c netfaultCond) companions(v string) []nfCompanion {
	var out []nfCompanion
	if c.faults.ErrProb > 0 {
		for i, wl := range netWorkloads {
			out = append(out, nfCompanion{c.name + "-" + wl.key + "-retries", "net_retries", i})
		}
	}
	// FUSE's user-level cache absorbs the blackout before the store's
	// breaker ever opens, so its degraded count is a constant zero —
	// not a publishable cell.
	if c.outage && v == VariantBento {
		out = append(out, nfCompanion{c.name + "-varmail-degraded", "net_degraded", 2})
	}
	return out
}

// IsCounterCell reports whether a published cell is a netfaults
// companion: its Ops is an event count over one virtual second, not
// work done, so its rate has no better direction — fewer retries is
// not a slowdown and more is not a speed-up. A gate holds such a cell
// two-sided.
func IsCounterCell(experiment, variant, cell string) bool {
	if experiment != ExpNetfaults || !slices.Contains(netfaultVariants, variant) {
		return false
	}
	for _, c := range netfaultConds {
		for _, cc := range c.companions(variant) {
			if cc.name == cell {
				return true
			}
		}
	}
	return false
}

// netfaultsPlan builds the network-fault scenario: for each variant and
// each condition in netfaultConds, netWorkloads run with I/O errors
// tolerated, so Ops counts successes (goodput) and Errs counts ops the
// fault layer could not save. Companion cells derive operational
// counters from the same run (upgradePlan's Ops-per-virtual-second
// encoding): lossy conditions publish net_retries per workload, and the
// outage condition publishes varmail's net_degraded — the serves
// (cached reads, staged writes) the store completed while the circuit
// breaker was open.
func netfaultsPlan(o Options) *plan {
	vars := netfaultVariants
	var cols []string
	for _, c := range netfaultConds {
		cols = append(cols, netCols(c.name)...)
	}
	var specs []CellSpec
	// Per row, spec order is: for each condition, the three goodput
	// cells, then that condition's companions. goodput and extras hold
	// each kind's indices into data[row], in that order.
	goodput := make(map[string][]int)
	extras := make(map[string][]int)
	for _, v := range vars {
		n := 0
		add := func(idx map[string][]int, run func() (filebench.Result, error)) {
			specs = append(specs, CellSpec{Experiment: ExpNetfaults, Variant: v,
				Run: func(filebench.Target) ([]filebench.Result, error) { return single(run()) }})
			idx[v] = append(idx[v], n)
			n++
		}
		for _, c := range netfaultConds {
			runs := make([]func() (filebench.Result, error), len(netWorkloads))
			for i, wl := range netWorkloads {
				runs[i] = nfRun(o, c, v, wl.run)
			}
			for _, run := range runs {
				add(goodput, func() (filebench.Result, error) {
					r, err := run()
					if !o.Metrics {
						r.Metrics = nil
					}
					return r, err
				})
			}
			for _, cc := range c.companions(v) {
				run := runs[cc.wl]
				add(extras, func() (filebench.Result, error) {
					r, err := run()
					return filebench.Result{Name: cc.name, Ops: r.Metrics[cc.counter], Elapsed: time.Second}, err
				})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		s := Table("Netfaults scenario: goodput under deterministic network faults", cols, vars,
			func(r, c int) string {
				v := vars[r]
				return netCell(data[v][goodput[v][c]], c)
			})
		var ops strings.Builder
		for _, v := range vars {
			for _, i := range extras[v] {
				fmt.Fprintf(&ops, "  %-12s %-34s %d\n", v, data[v][i].Name, data[v][i].Ops)
			}
		}
		if ops.Len() > 0 {
			s += "\nOperational counters (per cell):\n" + ops.String()
		}
		return s
	}}
}
