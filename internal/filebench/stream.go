package filebench

import (
	"fmt"
	"time"

	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// StreamConfig parameterizes the streaming scenario: one cold
// end-to-end sequential pass over a large per-thread file in 128 KiB
// calls, the workload where the kernel's background I/O machinery
// (read-ahead, background write-back) pays off and a FUSE file system
// has neither. Unlike the timed microbenchmarks, a stream runs to
// completion and the figure of merit is the virtual time the pass took.
type StreamConfig struct {
	Threads  int
	FileSize int64 // bytes streamed per thread (default 32 MiB)

	// TolerateIO keeps a stream alive across ErrIO-class failures from
	// a faulty backend: the failed chunk is retried at the same offset
	// and the failure is counted in Result.Errs.
	TolerateIO bool
	// PreMeasure, if set, runs after setup (files written, caches
	// dropped) with the virtual-time ns at which measurement starts.
	PreMeasure func(startNS int64)
}

// streamIOSize is the bytes per read or write call of a stream.
const streamIOSize = 128 << 10

// streamDeadline bounds a stream pass in virtual time; streams run to
// completion, so this only guards against a runaway workload.
const streamDeadline = 24 * time.Hour

// StreamRead measures a cold sequential read: per-thread files are
// written and synced, every clean page is dropped (so the pass reads
// the device, not the cache), and each thread then streams its file
// start to finish.
func StreamRead(tg Target, cfg StreamConfig) (Result, error) { return stream(tg, cfg, false) }

// StreamWrite measures a sustained sequential write: each thread
// creates a fresh file, streams it to FileSize, and fsyncs once at the
// end — the untar/backup-ingest shape. With a background flusher the
// writer overlaps dirtying with write-back; without one it stalls on its
// own dirty budget.
func StreamWrite(tg Target, cfg StreamConfig) (Result, error) { return stream(tg, cfg, true) }

// stream is the streaming pass: each thread reads or writes its file
// sequentially, retrying a failed chunk at the same offset, until
// FileSize bytes have moved or a read returns none.
func stream(tg Target, cfg StreamConfig, write bool) (Result, error) {
	cfg.Threads = max(cfg.Threads, 1)
	if cfg.FileSize <= 0 {
		cfg.FileSize = 32 << 20
	}
	op, path, mode := "read", "/stream%d", fsapi.ORdonly
	if write {
		op, path, mode = "write", "/wstream%d", fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc
	}
	setup := tg.K.NewTask("setup")
	if !write {
		for w := 0; w < cfg.Threads; w++ {
			if err := prepareFile(tg, setup, fmt.Sprintf(path, w), cfg.FileSize); err != nil {
				return Result{}, err
			}
		}
		if err := tg.M.Sync(setup); err != nil {
			return Result{}, err
		}
		tg.M.DropCaches()
	}

	name := fmt.Sprintf("stream-%s-%dt-%dk", op, cfg.Threads, streamIOSize/1024)
	if cfg.PreMeasure != nil {
		cfg.PreMeasure(int64(setup.Clk.Now()))
	}
	res := runWorkers(tg, name, cfg.Threads, setup.Clk.Now(), streamDeadline,
		func(w int, task *kernel.Task, deadline int64, pace func()) (tally, error) {
			f, err := tg.M.Open(task, fmt.Sprintf(path, w), mode)
			if err != nil {
				return tally{}, err
			}
			defer tg.M.Close(task, f)
			buf, io := rw(f, streamIOSize, write)
			n, err := loop(task, deadline, pace, 0, cfg.TolerateIO, func(n *tally) error {
				k, err := io(task, buf, n.bytes)
				if err != nil {
					return err
				}
				if k == 0 {
					n.done = true
					return nil
				}
				n.ops++
				n.bytes += int64(k)
				n.done = n.bytes >= cfg.FileSize
				return nil
			})
			if err == nil && write {
				err = f.FSync(task)
			}
			return n, err
		})
	return res, nil
}
