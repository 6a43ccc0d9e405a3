package filebench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// MacroConfig parameterizes the macrobenchmark personalities.
type MacroConfig struct {
	Threads  int
	Files    int // dataset size per thread
	Duration time.Duration
	MaxOps   int64
	Seed     int64

	// TolerateIO absorbs ErrIO-class failures from a faulty backend:
	// the failed flowop is skipped, counted in Result.Errs, and the
	// loop moves on instead of aborting the worker.
	TolerateIO bool
	// PreMeasure, if set, runs after setup (dataset written and
	// synced) with the virtual-time ns at which measurement starts.
	PreMeasure func(startNS int64)
}

func (c *MacroConfig) defaults(threads, files int) {
	if c.Threads <= 0 {
		c.Threads = threads
	}
	if c.Files <= 0 {
		c.Files = files
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
}

// macro writes each thread's dataset — cfg.Files copies of a size-byte
// file, named by file, in the directory named by dir — syncs it, and
// runs worker w's step (from newStep, given its directory) in the shared
// loop until the window closes.
func macro(tg Target, cfg MacroConfig, name, dir, file string, size int,
	newStep func(w int, task *kernel.Task, dir string) func(n *tally) error) (Result, error) {
	setup := tg.K.NewTask("setup")
	payload := pattern(size)
	for w := 0; w < cfg.Threads; w++ {
		d := fmt.Sprintf(dir, w)
		if err := tg.M.Mkdir(setup, d); err != nil {
			return Result{}, err
		}
		for i := 0; i < cfg.Files; i++ {
			if err := tg.M.WriteFile(setup, d+fmt.Sprintf(file, i), payload); err != nil {
				return Result{}, err
			}
		}
	}
	if err := tg.M.Sync(setup); err != nil {
		return Result{}, err
	}
	if cfg.PreMeasure != nil {
		cfg.PreMeasure(int64(setup.Clk.Now()))
	}
	res := runWorkers(tg, fmt.Sprintf("%s-%dt", name, cfg.Threads), cfg.Threads, setup.Clk.Now(), cfg.Duration,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			return loop(task, deadline, pace, cfg.MaxOps, cfg.TolerateIO, newStep(w, task, fmt.Sprintf(dir, w)))
		})
	return res, nil
}

// Varmail is filebench's mail-server personality (Table 6): each loop
// deletes a message, composes one (create, append, fsync), reads and
// appends to another (fsync again), and reads a whole message. Messages
// average 16 KiB, appends are half that. Every flowop counts as one
// operation, matching filebench accounting; a failed delete or read is
// absorbed (TolerateIO) without ending the loop.
func Varmail(tg Target, cfg MacroConfig) (Result, error) {
	const meanSize = 16 << 10
	cfg.defaults(16, 200)
	return macro(tg, cfg, "varmail", "/mail%d", "/m%05d", meanSize, func(w int, task *kernel.Task, dir string) func(n *tally) error {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
		appendBuf := pattern(meanSize / 2) // write source only
		next := cfg.Files
		// readWhole is openfile + readwholefile of a random message.
		readWhole := func(n *tally, p string) {
			if data, err := tg.M.ReadFile(task, p); err == nil {
				n.bytes += int64(len(data))
			} else {
				n.absorb(err)
			}
			n.ops++
		}
		// appendSync is appendfilerand + fsync + close on an open file.
		appendSync := func(n *tally, f *kernel.File) error {
			if _, err := f.Write(task, appendBuf); err != nil {
				_ = tg.M.Close(task, f)
				return err
			}
			n.ops++
			if err := f.FSync(task); err != nil {
				_ = tg.M.Close(task, f)
				return err
			}
			n.ops++
			return tg.M.Close(task, f)
		}
		return func(n *tally) error {
			// deletefile
			victim := fmt.Sprintf("%s/m%05d", dir, rng.Intn(next))
			if err := tg.M.Unlink(task, victim); err == nil || errors.Is(err, fsapi.ErrNotExist) {
				n.ops++
			} else if !n.absorb(err) {
				return err
			}
			// createfile + appendfilerand + fsync
			p := fmt.Sprintf("%s/m%05d", dir, next)
			next++
			f, err := tg.M.Open(task, p, fsapi.OCreate|fsapi.OWronly|fsapi.OAppend)
			if err != nil {
				return err
			}
			if err := appendSync(n, f); err != nil {
				return err
			}
			n.bytes += int64(len(appendBuf))
			// openfile + readwholefile + appendfilerand + fsync
			q := fmt.Sprintf("%s/m%05d", dir, rng.Intn(next))
			g, err := tg.M.Open(task, q, fsapi.ORdwr|fsapi.OAppend|fsapi.OCreate)
			if err != nil {
				return err
			}
			readWhole(n, q)
			if err := appendSync(n, g); err != nil {
				return err
			}
			// openfile + readwholefile (another message)
			readWhole(n, fmt.Sprintf("%s/m%05d", dir, rng.Intn(next)))
			return nil
		}
	})
}

// Fileserver is filebench's file-server personality (Table 6): create and
// write a whole 128 KiB file, append 16 KiB to a random file, read a whole
// file, delete a file — no fsyncs, 50 threads by default.
func Fileserver(tg Target, cfg MacroConfig) (Result, error) {
	const fileSize = 128 << 10
	cfg.defaults(50, 100)
	return macro(tg, cfg, "fileserver", "/srv%d", "/f%05d", fileSize, func(w int, task *kernel.Task, dir string) func(n *tally) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(w)))
		payload := pattern(fileSize)
		appendBuf := pattern(16 << 10) // write source only
		next := cfg.Files
		return func(n *tally) error {
			// createfile + writewholefile
			p := fmt.Sprintf("%s/f%05d", dir, next)
			next++
			if err := tg.M.WriteFile(task, p, payload); err != nil {
				return err
			}
			n.ops += 2
			n.bytes += int64(len(payload))
			// appendfilerand
			q := fmt.Sprintf("%s/f%05d", dir, rng.Intn(next))
			if f, err := tg.M.Open(task, q, fsapi.OWronly|fsapi.OAppend|fsapi.OCreate); err == nil {
				if _, err := f.Write(task, appendBuf); err == nil {
					n.bytes += int64(len(appendBuf))
				}
				_ = tg.M.Close(task, f)
			}
			n.ops++
			// readwholefile
			r := fmt.Sprintf("%s/f%05d", dir, rng.Intn(next))
			if data, err := tg.M.ReadFile(task, r); err == nil {
				n.bytes += int64(len(data))
			}
			n.ops++
			// deletefile
			d := fmt.Sprintf("%s/f%05d", dir, rng.Intn(next))
			if err := tg.M.Unlink(task, d); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
				return err
			}
			n.ops++
			return nil
		}
	})
}

// Untar replays extracting a synthetic source archive of dirs
// directories: create each directory, create and write each file within
// it (single-threaded, like tar), and sync. The tree has the Linux
// source's shape at reduced scale (the real tree: ~4.5k directories,
// ~70k files, ~14 KiB mean): 18 files per directory, sizes drawn around
// a 14 KiB mean with a few 12x outliers. It reports total elapsed virtual
// time — Table 6's untar row measures seconds, lower is better.
func Untar(tg Target, dirs int) (Result, error) {
	const filesPerDir, meanSize = 18, 14 << 10
	rng := rand.New(rand.NewSource(41))
	res := runWorkers(tg, "untar", 1, 0, time.Hour,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			var n tally
			buf := make([]byte, 1<<20)
			rng.Read(buf)
			if err := tg.M.Mkdir(task, "/linux"); err != nil {
				return n, err
			}
			for d := 0; d < dirs; d++ {
				dir := fmt.Sprintf("/linux/dir%04d", d)
				if err := tg.M.Mkdir(task, dir); err != nil {
					return n, err
				}
				n.ops++
				for i := 0; i < filesPerDir; i++ {
					// Size distribution: mostly small, a few large, like a
					// source tree.
					size := meanSize/2 + rng.Intn(meanSize)
					if rng.Intn(40) == 0 {
						size *= 12
					}
					size = min(size, len(buf))
					if err := tg.M.WriteFile(task, fmt.Sprintf("%s/file%04d.c", dir, i), buf[:size]); err != nil {
						return n, err
					}
					n.ops++
					n.bytes += int64(size)
				}
			}
			// tar finishes with the data on disk.
			return n, tg.M.Sync(task)
		})
	return res, nil
}
