package harness

import (
	"fmt"
	"strings"
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
	outage bool // schedule a mid-run blackout (armed once setup is done)
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

// netfaultsPlan builds the network-fault scenario: for each variant and
// each condition in netfaultConds, netWorkloads run with I/O errors
// tolerated, so Ops counts successes (goodput) and Errs counts ops the
// fault layer could not save. Every record also carries the store's
// fault counts over the cell as quantities: net_retries, and
// net_degraded — the serves (cached reads, staged writes) the store
// completed while the circuit breaker was open.
func netfaultsPlan(o Options) *plan {
	vars := netfaultVariants
	var cols []string
	for _, c := range netfaultConds {
		cols = append(cols, netCols(c.name)...)
	}
	var specs []CellSpec
	for _, v := range vars {
		for _, c := range netfaultConds {
			no := c.options(o)
			for _, wl := range netWorkloads {
				specs = append(specs, CellSpec{Experiment: ExpNetfaults, Variant: v, Mount: v, Opts: no,
					Run: func(tg filebench.Target) (filebench.Result, error) {
						st := tg.M.Device().Backend().(*netstore.Store)
						var pre func(int64)
						if c.outage {
							// Armed at absolute virtual times once setup is
							// done (its length varies per workload).
							d := int64(no.Duration)
							pre = func(startNS int64) { st.ArmOutage(startNS+d/4, startNS+3*d/4) }
						}
						r, err := wl(tg, no, true, pre)
						if err != nil {
							return r, fmt.Errorf("%s: %w", c.name, err)
						}
						// Prefixed before the runner names the trace file, so
						// per-condition traces don't collide on the bare
						// workload name.
						r.Name = c.name + "-" + r.Name
						retries, degraded := st.FaultCounts()
						r.Quantities = map[string]int64{"net_retries": retries, "net_degraded": degraded}
						return r, nil
					}})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		var ops strings.Builder
		fmt.Fprintf(&ops, "\nOperational counters (per cell):\n  %-12s %-36s %12s %12s\n", "", "", "net_retries", "net_degraded")
		for _, v := range vars {
			for _, r := range data[v] {
				fmt.Fprintf(&ops, "  %-12s %-36s %12d %12d\n", v, r.Name, r.Quantities["net_retries"], r.Quantities["net_degraded"])
			}
		}
		return Table("Netfaults scenario: goodput under deterministic network faults", cols, vars,
			func(r, c int) string { return netCell(data[vars[r]][c], c) }) + ops.String()
	}}
}
