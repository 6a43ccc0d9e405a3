package filebench

import (
	"fmt"
	"math/rand"
	"time"

	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// UpgradeConfig parameterizes UpgradeMix, the live-upgrade availability
// scenario: concurrent readers and writers keep operating while an
// operator worker hot-swaps the file-system implementation mid-window.
type UpgradeConfig struct {
	FileSize int64 // per-worker working file size
	Duration time.Duration
	Seed     int64

	// Swap performs the upgrade on the operator's task. It runs under
	// the group scheduler like any other worker operation, so everything
	// it does — quiesce, state transfer, resume — is charged to virtual
	// time deterministically.
	Swap func(task *kernel.Task) error
}

// The upgrade mix's fixed shape: two 4 KiB readers and two 4 KiB
// writers, with no op cap.
const (
	upgradeReaders = 2
	upgradeWriters = 2
	upgradeIOSize  = 4096
)

// UpgradeReport is what UpgradeMix observed from the application side of
// the swap. The shim-side breakdown (pause, transfer size) comes from
// core.BentoFS.LastUpgrade; this report carries what only the workload
// can see: how the swap surfaced in per-operation latency.
type UpgradeReport struct {
	// MaxOpNS is the slowest single operation in the measured window, in
	// virtual ns. With a mid-window swap this is the latency spike paid
	// by the first operation to arrive during the upgrade pause.
	MaxOpNS int64
}

// UpgradeMix runs two readers and two writers doing random 4K I/O over
// per-worker files while one extra operator worker performs cfg.Swap
// halfway through the window. All workers (the operator included) run
// under the group scheduler, so the swap lands at a fixed point of the
// virtual timeline — the same point in the operation stream on every
// run — and the whole scenario, including who stalls and for how long,
// is byte-reproducible across runs, hosts, and host-parallelism levels.
func UpgradeMix(tg Target, cfg UpgradeConfig) (Result, UpgradeReport, error) {
	if cfg.FileSize <= 0 {
		cfg.FileSize = 16 << 20
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	setup := tg.K.NewTask("setup")
	for w := 0; w < upgradeReaders; w++ {
		p := fmt.Sprintf("/upgread%d", w)
		if err := prepareFile(tg, setup, p, cfg.FileSize); err != nil {
			return Result{}, UpgradeReport{}, err
		}
		// Warm the page cache so reader latency has a tight baseline the
		// upgrade stall stands out against.
		if _, err := tg.M.ReadFile(setup, p); err != nil {
			return Result{}, UpgradeReport{}, err
		}
	}
	for w := 0; w < upgradeWriters; w++ {
		if err := prepareFile(tg, setup, fmt.Sprintf("/upgwrite%d", w), cfg.FileSize); err != nil {
			return Result{}, UpgradeReport{}, err
		}
	}

	name := fmt.Sprintf("upgrade-mix-%dr%dw", upgradeReaders, upgradeWriters)
	operator := upgradeReaders + upgradeWriters // last registration slot
	start := setup.Clk.Now()
	swapNS := int64(start + cfg.Duration/2)
	// Written by admitted workers only (runWorkers), so no lock.
	var (
		rep     UpgradeReport
		swapErr error
	)
	res := runWorkers(tg, name, operator+1, start, cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			if w == operator {
				// The operator sleeps (in virtual time) to the swap point,
				// is admitted like any worker, and performs the upgrade.
				task.Clk.AdvanceTo(swapNS)
				pace()
				swapErr = cfg.Swap(task)
				return tally{}, swapErr
			}
			reader := w < upgradeReaders
			path, mode := fmt.Sprintf("/upgread%d", w), fsapi.ORdonly
			if !reader {
				path, mode = fmt.Sprintf("/upgwrite%d", w-upgradeReaders), fsapi.ORdwr
			}
			f, err := tg.M.Open(task, path, mode)
			if err != nil {
				return tally{}, err
			}
			defer tg.M.Close(task, f)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			buf, io := rw(f, upgradeIOSize, !reader)
			slots := max(cfg.FileSize/upgradeIOSize, 1)
			var maxNS int64
			n, err := loop(task, deadline, pace, 0, false, func(n *tally) error {
				off := rng.Int63n(slots) * upgradeIOSize
				t0 := task.Clk.NowNS()
				k, err := io(task, buf, off)
				if err != nil {
					return err
				}
				maxNS = max(maxNS, task.Clk.NowNS()-t0)
				n.ops++
				n.bytes += int64(k)
				return nil
			})
			rep.MaxOpNS = max(rep.MaxOpNS, maxNS)
			return n, err
		})
	if swapErr != nil {
		return res, rep, fmt.Errorf("upgrade-mix: swap: %w", swapErr)
	}
	if res.Errs > 0 {
		return res, rep, fmt.Errorf("upgrade-mix: %d worker error(s)", res.Errs)
	}
	return res, rep, nil
}
