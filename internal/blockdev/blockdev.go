// Package blockdev implements the simulated block device that backs every
// file system in this repository, split into a backend-agnostic front
// (the Device) and pluggable storage Backends.
//
// The Device front owns everything a storage tier shares: argument
// validation, fault injection, power-cut scheduling, command statistics,
// and trace counters/queue-depth sampling. The Backend underneath stores
// real bytes (file systems on top of it are functional, not mocked) and
// prices each command in virtual time. The default backend is the local
// NVMe model in this package: commands are booked on a vclock.Resource
// that models the drive's queue pairs, and writes land in a volatile
// write cache — they complete quickly but are not durable until a FLUSH
// command, which is slow, the behaviour of consumer NVMe parts without
// power-loss protection and the mechanism behind the paper's FUSE fsync
// penalty. internal/netstore supplies the remote object-store backend
// (network cost model + read-through cache tier) behind the same Device.
//
// Crash semantics. What power loss destroys is exactly the volatile
// write cache: every write since the last FLUSH. Crash(keepFraction,
// seed) reverts the device to its durable state (as of the last FLUSH)
// plus a seeded pseudo-random subset of the unflushed writes —
// keepFraction 0 is the adversarial cache (all unflushed writes gone), 1
// the friendly one (all retained), and intermediate values model
// arbitrary retention and reordering, since the surviving subset need
// not be a prefix of write order. The crash-recovery tests for the xv6
// log and the ext4 journal are built on it. ArmPowerCut composes with
// Crash to make the cut point itself systematic: it trips after a chosen
// count of write-class commands, after which every command fails with
// ErrPowerLoss — the deterministic enumeration the crash-point fuzzer
// (internal/crashtort, cmd/crashtort) sweeps.
//
// Determinism: queue bookings (Read/Submit/Flush) mutate the backend's
// shared vclock.Resource, so their completion times depend on booking
// order. The device itself imposes no order and takes no lock — it books
// in call order. Benchmark workers are serialized by the vclock
// scheduler (one admitted worker at a time, minimal (virtual time, id)
// first), which fixes the call order as a function of virtual time;
// every multi-worker cell therefore replays bit-for-bit. The only
// internal map walk in iteration order, the local backend retiring its
// undo log, commutes: it returns buffers to a free list, and FLUSH cost
// derives from the count alone.
package blockdev

import (
	"errors"
	"fmt"

	"bento/internal/costmodel"
	"bento/internal/seeded"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// Common device errors.
var (
	// ErrOutOfRange reports a block number outside the device.
	ErrOutOfRange = errors.New("blockdev: block out of range")
	// ErrIO reports an injected I/O failure.
	ErrIO = errors.New("blockdev: I/O error")
	// ErrBadSize reports a buffer whose length is not the block size.
	ErrBadSize = errors.New("blockdev: buffer size != block size")
	// ErrPowerLoss reports a command issued after an armed power cut
	// tripped: the device is off, and every command fails until
	// DisarmPowerCut restores power.
	ErrPowerLoss = errors.New("blockdev: power lost")
)

// Config describes a device to create.
type Config struct {
	// BlockSize in bytes; defaults to 4096.
	BlockSize int
	// Blocks is the number of blocks; must be > 0.
	Blocks int
	// Model supplies service times; defaults to costmodel.Default().
	Model *costmodel.Model
	// Name labels the device in stats output.
	Name string
	// Backend supplies the storage tier; nil selects the local
	// RAM-backed NVMe model. A non-nil backend must be sized for the
	// same BlockSize and Blocks geometry this Config declares — the
	// front validates block numbers against Blocks before delegating.
	Backend Backend
}

// Stats counts completed device commands.
type Stats struct {
	Reads        int64
	Writes       int64
	Flushes      int64
	BytesRead    int64
	BytesWritten int64
}

// Device is a latency-modeled block device front over a pluggable
// storage Backend. Like everything a cell owns it is driven by one task
// at a time and holds no lock.
//
// Plugging. Between Plug and Unplug (the kernel plugs around each
// read-ahead fill batch, as Linux's read_pages plugs the block queue, and
// around each ->writepages call, as its write-back does) contiguous
// blocks merge into one device command. The device keeps one open
// command, read or write: the last plugged command's clock, first block,
// block count and completion so far. A plugged read (write) of block b+1
// issued on the same clock as the open read (write) command's block b, no
// later than the command's completion, may join it provided nothing else
// has been booked on its channel since (Backend.JoinRead, JoinWrite);
// block k of the command then completes at the command's completion so
// far plus one block's transfer time (DevRead4K, DevWrite4K for 4 KiB
// blocks) — in-order DMA, so every block completes after it was asked for
// and an n-block command totals DevRead(n blocks) or DevWrite(n blocks),
// exactly what one n-block command is priced at. The two directions join
// by different rules. A read always joins: under the rule writes use,
// concurrent readers' batches spread over every channel and pay the 70 µs
// read base more often. A write joins only if that completes it no later
// than a one-block command of its own would (the local backend asks
// vclock.Resource.Peek): on an idle device two or three blocks in parallel
// 19.5 µs commands finish before one 18 + 1.5n µs command, so a short
// append or a journal's few log slots stay one-block commands, and a long
// write-back run joins once it has filled the channels. Anything else
// closes the open command: a command of the other direction, of another
// block or on another clock, a block that does not join, a failed command,
// a FLUSH, Unplug, ResetStats or Crash. The first block of a command and
// every unplugged command are booked as one-block commands, so a device
// that is never plugged books one command per block, whatever its backend.
// Every block still counts as one read or write in Stats, in the dev_reads
// and dev_writes counters and in ArmPowerCut's countdown, so crash points
// enumerate the same plugged or not; dev_read_merged and dev_write_merged
// count the blocks that joined an open command, and each closed command of
// two or more blocks leaves a "merged-read" or "merged-write" instant on
// the device's trace track.
type Device struct {
	name      string
	blockSize int
	blocks    int
	// backend stores the bytes and prices the commands. Stored as an
	// interface field converted once at construction, so hot-path
	// delegation never boxes or allocates.
	backend Backend
	model   *costmodel.Model
	stats   Stats

	// rec counts commands into the cell's trace recorder and samples
	// queue occupancy every sampleEvery-th command. Nil records nothing.
	// Sampling points are a pure function of command order —
	// deterministic under the scheduler.
	rec    *trace.Recorder
	cmdSeq int64

	// fault injection: per-direction injected-error tables over the
	// shared seeded-decision core (the netstore fault model draws from
	// the same package, so every injection site shares one discipline).
	readFaults  seeded.ErrorSet
	writeFaults seeded.ErrorSet

	// power-cut scheduling (see ArmPowerCut): when armed, cutRemaining
	// counts down on each completed write-class command (Submit/Write or
	// Flush); at zero the power is out and every command fails with
	// ErrPowerLoss.
	cutArmed     bool
	cutRemaining int64
	powerOut     bool

	// plugged is set between Plug and Unplug; run is the open command
	// (run.n == 0, run.clk nil: none).
	plugged bool
	run     openCmd
}

// openCmd is a plugged read or write command that later contiguous
// commands of the same direction on the same clock may still join.
type openCmd struct {
	clk   *vclock.Clock
	write bool  // a write command; a read one otherwise
	first int   // its first block
	n     int   // blocks so far
	at    int64 // when its first block was asked for
	end   int64 // its completion so far
}

// New creates a device per cfg.
func New(cfg Config) (*Device, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 4096
	}
	if cfg.BlockSize < 512 || cfg.BlockSize%512 != 0 {
		return nil, fmt.Errorf("blockdev: bad block size %d", cfg.BlockSize)
	}
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("blockdev: bad block count %d", cfg.Blocks)
	}
	if cfg.Model == nil {
		cfg.Model = costmodel.Default()
	}
	if cfg.Name == "" {
		cfg.Name = "nvme0"
	}
	be := cfg.Backend
	if be == nil {
		be = NewLocalBackend(cfg.Name, cfg.BlockSize, cfg.Model)
	}
	return &Device{
		name:      cfg.Name,
		blockSize: cfg.BlockSize,
		blocks:    cfg.Blocks,
		backend:   be,
		model:     cfg.Model,
	}, nil
}

// MustNew is New for tests and examples where the config is known-good.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// BlockSize reports the device block size in bytes.
func (d *Device) BlockSize() int { return d.blockSize }

// Blocks reports the number of blocks on the device.
func (d *Device) Blocks() int { return d.blocks }

// Model exposes the device's cost model (shared with the kernel sim).
func (d *Device) Model() *costmodel.Model { return d.model }

// Backend exposes the storage tier behind the front (tests and tools
// that need backend-specific statistics type-assert on it).
func (d *Device) Backend() Backend { return d.backend }

// sampleEvery is the count stride between queue-occupancy trace samples,
// counting every block read (one that joined an open command too), write
// and flush; sampling by count (not time) keeps the overhead bounded on
// I/O-heavy cells while still resolving queue build-up.
const sampleEvery = 64

// SetRecorder attaches the cell's trace recorder (nil disables). The
// harness sets it at device creation, before any I/O. The backend gets
// the same recorder for its own spans and counters (netstore's GET/PUT
// request spans; the local backend records nothing extra).
func (d *Device) SetRecorder(r *trace.Recorder) {
	d.rec = r
	d.backend.SetRecorder(r)
}

// DropBackendCache evicts clean entries from the backend's local cache
// tier (netstore's read-through object cache), so drop_caches-style
// scenarios are cold all the way to the remote store. A no-op on the
// local backend.
func (d *Device) DropBackendCache() {
	d.backend.DropCache()
}

// sample emits a queue-occupancy sample every sampleEvery-th
// command; the completion time has already been booked.
func (d *Device) sample(now int64) {
	d.cmdSeq++
	if d.cmdSeq%sampleEvery == 0 {
		d.rec.Sample(d.name, "qdepth", now, int64(d.backend.QueueDepth(now)))
	}
}

// Plug starts merging contiguous reads, and contiguous writes, into one
// command (see Device); Unplug stops it and closes the open command.
// Plugging an already plugged device changes nothing.
func (d *Device) Plug() { d.plugged = true }

// Unplug ends a Plug.
func (d *Device) Unplug() {
	d.closeRun()
	d.plugged = false
}

// Read copies block blk into buf (len must equal BlockSize) and advances
// clk to the command's completion time.
func (d *Device) Read(clk *vclock.Clock, blk int, buf []byte) error {
	if len(buf) != d.blockSize {
		return ErrBadSize
	}
	_, err := d.read(clk, blk, buf)
	return err
}

// Borrow is Read by reference (Backend.BorrowBlock): the same command,
// faults, statistics and clock advance, returning the backend's buffer as
// a read-only view that stays valid and unchanged for as long as the
// caller holds it. A nil view with a nil error means the block reads as
// zeros.
func (d *Device) Borrow(clk *vclock.Clock, blk int) ([]byte, error) {
	return d.read(clk, blk, nil)
}

// read is Read (buf non-nil) and Borrow (buf nil): it joins blk to the
// open command when it may, and otherwise books blk as a command of its
// own, which a plugged device then keeps open.
func (d *Device) read(clk *vclock.Clock, blk int, buf []byte) (view []byte, err error) {
	if err := d.check(blk, &d.readFaults); err != nil {
		d.closeRun()
		return nil, err
	}
	now := clk.NowNS()
	var done int64
	joined := false
	if r := &d.run; d.joinable(clk, false, blk, now) {
		if view, done, joined = d.backend.JoinRead(r.end, blk, buf); joined {
			r.n++
			r.end = done
			d.rec.Add(trace.CtrDevReadMerged, 1)
		}
	}
	if !joined {
		d.closeRun()
		if buf != nil {
			done, err = d.backend.ReadBlock(now, blk, buf)
		} else {
			view, done, err = d.backend.BorrowBlock(now, blk)
		}
		if err != nil {
			// The failure still consumed virtual time (timeouts, retries):
			// advance to when it became known, then surface it.
			clk.AdvanceTo(done)
			return nil, err
		}
		if d.plugged {
			d.run = openCmd{clk: clk, first: blk, n: 1, at: now, end: done}
		}
	}
	d.stats.Reads++
	d.stats.BytesRead += int64(d.blockSize)
	d.rec.Add(trace.CtrDevReads, 1)
	d.sample(done)
	clk.AdvanceTo(done)
	return view, nil
}

// joinable reports whether a command of block blk in the given direction,
// issued on clk at now, may join the open command: it continues that
// command's blocks on its clock before the command completes. An empty run
// has no clock, so a matching clock means an open command.
func (d *Device) joinable(clk *vclock.Clock, write bool, blk int, now int64) bool {
	r := &d.run
	return d.plugged && r.clk == clk && r.write == write && blk == r.first+r.n && now <= r.end
}

// closeRun closes the open command, marking it on the trace when it
// carried more than one block.
func (d *Device) closeRun() {
	if r := d.run; r.n > 1 {
		name := "merged-read"
		if r.write {
			name = "merged-write"
		}
		d.rec.Instant(d.name, trace.CatDevice, name, r.at, int64(r.first), int64(r.n))
	}
	d.run = openCmd{}
}

// Submit queues a write of buf to block blk and returns the command's
// completion time without advancing clk. Callers that batch writes submit
// them all, then AdvanceTo the latest completion — that is how the
// in-kernel file systems exploit the device's queue-depth parallelism.
// The write is volatile until Flush.
func (d *Device) Submit(clk *vclock.Clock, blk int, buf []byte) (completion int64, err error) {
	return d.submit(clk, blk, buf, false)
}

// SubmitOwned is Submit by reference (Backend.SubmitOwned): the same
// command, faults, statistics and power-cut counting, but the backend
// keeps buf instead of copying it. The caller must not write buf again,
// whatever the call returns.
func (d *Device) SubmitOwned(clk *vclock.Clock, blk int, buf []byte) (completion int64, err error) {
	return d.submit(clk, blk, buf, true)
}

func (d *Device) submit(clk *vclock.Clock, blk int, buf []byte, owned bool) (completion int64, err error) {
	if len(buf) != d.blockSize {
		return 0, ErrBadSize
	}
	if err := d.check(blk, &d.writeFaults); err != nil {
		d.closeRun()
		return 0, err
	}
	now := clk.NowNS()
	joined := false
	if r := &d.run; d.joinable(clk, true, blk, now) {
		if completion, joined = d.backend.JoinWrite(r.end, now, blk, buf, owned); joined {
			r.n++
			r.end = completion
			d.rec.Add(trace.CtrDevWriteMerged, 1)
		}
	}
	if !joined {
		d.closeRun()
		if owned {
			completion, err = d.backend.SubmitOwned(now, blk, buf)
		} else {
			completion, err = d.backend.SubmitBlock(now, blk, buf)
		}
		if err != nil {
			// The write was not staged; it does not count as a write-class
			// command for power-cut purposes, but the failure's completion
			// time is real — callers advance to it.
			return completion, err
		}
		if d.plugged {
			d.run = openCmd{clk: clk, write: true, first: blk, n: 1, at: now, end: completion}
		}
	}
	d.stats.Writes++
	d.stats.BytesWritten += int64(d.blockSize)
	d.rec.Add(trace.CtrDevWrites, 1)
	d.sample(completion)
	d.countWrite()
	return completion, nil
}

// Write is a synchronous Submit: it waits (advances clk) for completion.
// This is the pattern of a userspace O_DIRECT pwrite, which cannot overlap
// commands. The write is still volatile until Flush.
func (d *Device) Write(clk *vclock.Clock, blk int, buf []byte) error {
	done, err := d.Submit(clk, blk, buf)
	clk.AdvanceTo(done) // failures consumed virtual time too (done is 0, a no-op, for validation errors)
	return err
}

// Flush issues the durability barrier: for the local backend a FLUSH
// command across the queue pairs whose cost grows with the amount of
// unflushed data; for netstore the coalesced write-back of every dirty
// cache object into whole-object PUTs. Afterwards all previously
// submitted writes are durable. It advances clk to completion.
func (d *Device) Flush(clk *vclock.Clock) error {
	d.closeRun()
	if d.powerOut {
		return ErrPowerLoss
	}
	if err := d.writeFaults.All(); err != nil {
		return err
	}
	done, err := d.backend.Flush(clk.NowNS())
	if err != nil {
		clk.AdvanceTo(done)
		return err
	}
	d.stats.Flushes++
	d.rec.Add(trace.CtrDevFlushes, 1)
	d.sample(done)
	d.countWrite()
	clk.AdvanceTo(done)
	return nil
}

// DirtyBlocks reports how many blocks sit in the backend's volatile
// tier (staged but not yet durable).
func (d *Device) DirtyBlocks() int {
	return d.backend.DirtyBlocks()
}

// Stats returns a snapshot of command counters.
func (d *Device) Stats() Stats {
	return d.stats
}

// ResourceStats exposes queue statistics (utilization, backlog).
func (d *Device) ResourceStats() vclock.ResourceStats {
	return d.backend.ResourceStats()
}

// ResetStats clears command counters and queue occupancy. Benchmarks call
// it after warmup.
func (d *Device) ResetStats() {
	d.closeRun()
	d.stats = Stats{}
	d.backend.Reset()
}

// Crash simulates power loss: the device reverts to its durable contents
// plus a pseudo-random keepFraction of the unflushed writes (chosen by
// seed), modeling arbitrary write-cache retention and reordering. The
// volatile tier is emptied. keepFraction is clamped to [0,1].
func (d *Device) Crash(keepFraction float64, seed int64) {
	if keepFraction < 0 {
		keepFraction = 0
	}
	if keepFraction > 1 {
		keepFraction = 1
	}
	d.closeRun()
	d.backend.Crash(keepFraction, seed)
}

// countWrite advances the armed power-cut countdown by one
// write-class command (Submit/Write or Flush).
func (d *Device) countWrite() {
	if !d.cutArmed || d.powerOut {
		return
	}
	d.cutRemaining--
	if d.cutRemaining <= 0 {
		d.powerOut = true
	}
}

// ArmPowerCut schedules a power loss after the next n write-class
// commands (Submit/Write and Flush; reads don't change durable state and
// don't count). The n-th such command is the last to succeed; every
// command after it — reads included — fails with ErrPowerLoss until
// DisarmPowerCut. n <= 0 cuts power immediately.
//
// Counting commands rather than time makes crash points enumerable and
// replayable: under the deterministic schedulers, command k of a given
// workload is the same command, with the same volatile write-cache
// contents, on every run. The crash-point fuzzer (internal/crashtort)
// sweeps k across a workload's whole command stream.
func (d *Device) ArmPowerCut(n int64) {
	d.cutArmed = true
	d.cutRemaining = n
	d.powerOut = n <= 0
}

// DisarmPowerCut restores power. It does not touch device contents:
// callers model the loss of the volatile write cache with Crash before
// remounting (power-on after a real power loss does both; keeping them
// separate lets tests choose the cache-retention fraction).
func (d *Device) DisarmPowerCut() {
	d.cutArmed = false
	d.cutRemaining = 0
	d.powerOut = false
}

// PowerOut reports whether an armed power cut has tripped.
func (d *Device) PowerOut() bool {
	return d.powerOut
}

// WriteCmds reports the number of write-class commands (writes + flushes)
// completed so far — the coordinate system ArmPowerCut counts in.
func (d *Device) WriteCmds() int64 {
	return d.stats.Writes + d.stats.Flushes
}

// InjectReadError makes reads of blk fail with ErrIO until cleared.
func (d *Device) InjectReadError(blk int) {
	d.readFaults.Inject(blk, ErrIO)
}

// InjectWriteError makes writes of blk fail with ErrIO until cleared.
func (d *Device) InjectWriteError(blk int) {
	d.writeFaults.Inject(blk, ErrIO)
}

// FailAll makes every subsequent command fail with ErrIO (a died device).
func (d *Device) FailAll() {
	d.readFaults.InjectAll(ErrIO)
	d.writeFaults.InjectAll(ErrIO)
}

// ClearFaults removes all injected failures.
func (d *Device) ClearFaults() {
	d.readFaults.Clear()
	d.writeFaults.Clear()
}

// check validates blk and applies injected faults.
func (d *Device) check(blk int, errs *seeded.ErrorSet) error {
	if d.powerOut {
		return ErrPowerLoss
	}
	if err := errs.All(); err != nil {
		return err
	}
	if blk < 0 || blk >= d.blocks {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, blk, d.blocks)
	}
	return errs.Check(blk)
}
