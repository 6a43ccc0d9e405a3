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
	Readers  int   // concurrent 4K-read workers
	Writers  int   // concurrent 4K-write workers
	IOSize   int   // bytes per operation
	FileSize int64 // per-worker working file size
	Duration time.Duration
	MaxOps   int64 // optional per-worker op cap (0 = none)
	Seed     int64

	// SwapAt is the virtual offset into the measured window at which the
	// operator performs the swap (default: halfway). Because the swap is
	// pinned to the virtual timeline it lands at the same point in the
	// operation stream on every run.
	SwapAt time.Duration

	// Swap performs the upgrade on the operator's task. It runs under
	// the group scheduler like any other worker operation, so everything
	// it does — quiesce, state transfer, resume — is charged to virtual
	// time deterministically.
	Swap func(task *kernel.Task) error
}

func (c *UpgradeConfig) defaults() {
	if c.Readers <= 0 {
		c.Readers = 2
	}
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.IOSize <= 0 {
		c.IOSize = 4096
	}
	if c.FileSize <= 0 {
		c.FileSize = 16 << 20
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.SwapAt <= 0 || c.SwapAt >= c.Duration {
		c.SwapAt = c.Duration / 2
	}
}

// UpgradeReport is what UpgradeMix observed from the application side of
// the swap. The shim-side breakdown (pause, transfer size) comes from
// core.BentoFS.LastUpgrade; this report carries what only the workload
// can see: how the swap surfaced in per-operation latency.
type UpgradeReport struct {
	// MaxOpNS is the slowest single operation in the measured window, in
	// virtual ns. With a mid-window swap this is the latency spike paid
	// by the first operation to arrive during the upgrade pause.
	MaxOpNS int64
	// OpsAfterSwap counts operations completed at or after the swap
	// point — evidence the mount stayed live.
	OpsAfterSwap int64
}

// UpgradeMix runs Readers+Writers workers doing random 4K I/O over
// per-worker files while one extra operator worker performs cfg.Swap at
// cfg.SwapAt. All workers (the operator included) run under the group
// scheduler, so the swap lands at a fixed point of the virtual timeline
// and the whole scenario — including who stalls, and for how long — is
// byte-reproducible across runs, hosts, and host-parallelism levels.
func UpgradeMix(tg Target, cfg UpgradeConfig) (Result, UpgradeReport, error) {
	cfg.defaults()
	setup := tg.K.NewTask("setup")
	for w := 0; w < cfg.Readers; w++ {
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
	for w := 0; w < cfg.Writers; w++ {
		if err := prepareFile(tg, setup, fmt.Sprintf("/upgwrite%d", w), cfg.FileSize); err != nil {
			return Result{}, UpgradeReport{}, err
		}
	}

	name := fmt.Sprintf("upgrade-mix-%dr%dw", cfg.Readers, cfg.Writers)
	operator := cfg.Readers + cfg.Writers // last registration slot
	start := setup.Clk.Now()
	swapNS := int64(start + cfg.SwapAt)
	// Written by admitted workers only (runWorkers), so no lock.
	var (
		rep     UpgradeReport
		swapErr error
	)
	res := runWorkers(tg, name, operator+1, start, cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (int64, int64, int64, error) {
			if w == operator {
				// The operator sleeps (in virtual time) to the swap point,
				// is admitted like any worker, and performs the upgrade.
				task.Clk.AdvanceTo(swapNS)
				pace()
				if err := cfg.Swap(task); err != nil {
					swapErr = err
					return 0, 0, 0, err
				}
				return 0, 0, 0, nil
			}
			reader := w < cfg.Readers
			path := fmt.Sprintf("/upgread%d", w)
			mode := fsapi.ORdonly
			if !reader {
				path = fmt.Sprintf("/upgwrite%d", w-cfg.Readers)
				mode = fsapi.ORdwr
			}
			f, err := tg.M.Open(task, path, mode)
			if err != nil {
				return 0, 0, 0, err
			}
			defer tg.M.Close(task, f)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			buf := make([]byte, cfg.IOSize)
			src := pattern(cfg.IOSize)
			slots := cfg.FileSize / int64(cfg.IOSize)
			if slots < 1 {
				slots = 1
			}
			var ops, bytes, maxNS, after int64
			for task.Clk.NowNS() < deadline && (cfg.MaxOps == 0 || ops < cfg.MaxOps) {
				pace()
				task.Charge(task.Model().AppOpOverhead)
				off := rng.Int63n(slots) * int64(cfg.IOSize)
				t0 := task.Clk.NowNS()
				var n int
				if reader {
					n, err = f.PRead(task, buf, off)
				} else {
					n, err = f.PWrite(task, src, off)
				}
				if err != nil {
					return ops, bytes, 0, err
				}
				if d := task.Clk.NowNS() - t0; d > maxNS {
					maxNS = d
				}
				if t0 >= swapNS {
					after++
				}
				ops++
				bytes += int64(n)
			}
			if maxNS > rep.MaxOpNS {
				rep.MaxOpNS = maxNS
			}
			rep.OpsAfterSwap += after
			return ops, bytes, 0, nil
		})
	if swapErr != nil {
		return res, rep, fmt.Errorf("upgrade-mix: swap: %w", swapErr)
	}
	if res.Errs > 0 {
		return res, rep, fmt.Errorf("upgrade-mix: %d worker error(s)", res.Errs)
	}
	return res, rep, nil
}
