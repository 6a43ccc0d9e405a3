package harness

import (
	"errors"
	"fmt"

	"bento/internal/core"
	"bento/internal/filebench"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
)

// upgradePlan builds the live-upgrade availability experiment: one
// workload run — concurrent readers and writers on a Bento mount with a
// mid-window hot swap of the bentoimpl module — published as one record,
// upgrade-mix-2r2w, whose throughput is the workload's across the swap
// and whose quantities are the availability numbers benchdiff gates:
//
//   - pause_ns: the quiesce-to-resume pause;
//   - xfer_ns, xfer_bytes: the state-transfer phase and the serialized
//     state size;
//   - maxlat_ns: the slowest single operation of the window — the
//     latency spike paid by whoever arrives mid-upgrade.
func upgradePlan(o Options) *plan {
	v := VariantBento
	run := func(tg filebench.Target) (filebench.Result, error) {
		shim := tg.M.FS().(*core.BentoFS)
		// Continuous write-back (as in fig4's sustained-write cells): an
		// unbounded dirty budget would defer the writers' entire dirty set
		// into one giant pre-swap flush whose group-commit window the
		// quiesce then waits out, drowning the upgrade cost it measures.
		tg.M.SetDirtyLimit(256)
		// No MaxOps cap: the cap exists to bound host time on expensive
		// cells, but here it would retire the (cheap, cached) workers
		// before the mid-window swap, leaving nothing to straddle the
		// pause. Duration alone bounds this cell.
		mix, rep, err := filebench.UpgradeMix(tg, filebench.UpgradeConfig{
			FileSize: workingSet(o, 4), Duration: o.Duration, Seed: 9,
			Swap: func(task *kernel.Task) error {
				// The replacement is the same module built with the mount's
				// configuration — the "fix deployed to a live fleet" shape.
				return shim.Upgrade(task, bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config()))
			},
		})
		if err != nil {
			return mix, err
		}
		stats := shim.LastUpgrade()
		if stats.Generation == 0 {
			return mix, errors.New("swap never ran")
		}
		mix.Quantities = map[string]int64{
			"pause_ns": stats.PauseNS, "xfer_ns": stats.TransferNS,
			"xfer_bytes": stats.TransferBytes, "maxlat_ns": rep.MaxOpNS,
		}
		return mix, nil
	}
	specs := []CellSpec{{Experiment: ExpUpgrade, Variant: v, Mount: v, Opts: o, Run: run}}
	cols := []string{"mix (ops/s)", "pause (µs)", "xfer (µs)", "xfer (B)", "max-op (µs)"}
	rows := []string{v}
	return &plan{rows: rows, specs: specs, render: func(data map[string][]filebench.Result) string {
		mix := data[v][0]
		us := func(name string) string {
			return fmt.Sprintf("%.1f", float64(mix.Quantities[name])/1e3)
		}
		return Table("Live upgrade under load: hot-swap of the Bento module mid-workload", cols, rows,
			func(_, c int) string {
				switch c {
				case 0:
					return fmt.Sprintf("%.0f", mix.OpsPerSec())
				case 1:
					return us("pause_ns")
				case 2:
					return us("xfer_ns")
				case 3:
					return fmt.Sprintf("%d", mix.Quantities["xfer_bytes"])
				default:
					return us("maxlat_ns")
				}
			})
	}}
}
