package harness

import (
	"errors"
	"fmt"
	"time"

	"bento/internal/core"
	"bento/internal/filebench"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
)

// upgradePlan builds the live-upgrade availability experiment: one
// workload run — concurrent readers and writers on a Bento mount with a
// mid-window hot swap of the bentoimpl module — reported as four records
// from one cell so each availability number is individually gated by
// benchdiff:
//
//   - upgrade-mix-2r2w: workload throughput across the swap (ops/sec);
//   - upgrade-pause: the quiesce-to-resume pause (Ops=1, elapsed =
//     pause), so OpsPerSec is 1e9/pause and a longer pause reads as a
//     throughput regression;
//   - upgrade-xfer: the state-transfer phase, same encoding, with Bytes
//     carrying the serialized state size;
//   - upgrade-maxlat: the slowest single operation of the window — the
//     latency spike paid by whoever arrives mid-upgrade.
func upgradePlan(o Options) *plan {
	v := VariantBento
	run := func(tg filebench.Target) ([]filebench.Result, error) {
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
			return nil, err
		}
		stats := shim.LastUpgrade()
		if stats.Generation == 0 {
			return nil, errors.New("swap never ran")
		}
		derived := func(name string, bytes, ns int64) filebench.Result {
			return filebench.Result{Name: name, Ops: 1, Bytes: bytes, Elapsed: time.Duration(ns)}
		}
		return []filebench.Result{
			mix,
			derived("upgrade-pause", 0, stats.PauseNS),
			derived("upgrade-xfer", stats.TransferBytes, stats.TransferNS),
			derived("upgrade-maxlat", 0, rep.MaxOpNS),
		}, nil
	}
	specs := []CellSpec{{Experiment: ExpUpgrade, Variant: v, Mount: v, Opts: o, Run: run}}
	cols := []string{"mix (ops/s)", "pause (µs)", "xfer (µs)", "xfer (B)", "max-op (µs)"}
	rows := []string{v}
	return &plan{rows: rows, specs: specs, render: func(data map[string][]filebench.Result) string {
		us := func(r filebench.Result) string {
			return fmt.Sprintf("%.1f", float64(r.Elapsed.Nanoseconds())/1e3)
		}
		cells := data[v] // [mix, pause, xfer, maxlat] as run returns them
		return Table("Live upgrade under load: hot-swap of the Bento module mid-workload", cols, rows,
			func(_, c int) string {
				switch c {
				case 0:
					return fmt.Sprintf("%.0f", cells[0].OpsPerSec())
				case 1:
					return us(cells[1])
				case 2:
					return us(cells[2])
				case 3:
					return fmt.Sprintf("%d", cells[2].Bytes)
				default:
					return us(cells[3])
				}
			})
	}}
}
