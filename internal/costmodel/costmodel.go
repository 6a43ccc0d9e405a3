// Package costmodel centralizes every latency constant used by the
// simulated kernel, device, and FUSE transport.
//
// The paper's evaluation ran on an 8-core i7 with a Samsung PM981 NVMe SSD
// behind PCIe passthrough. We do not try to match that testbed's absolute
// numbers; we parameterize the cost of each mechanism the paper identifies
// (user/kernel crossings, per-byte copies, device service and FLUSH times,
// FUSE daemon wakeups) and calibrate the defaults so the *relationships*
// the paper reports hold: Bento ≈ C-kernel, FUSE orders of magnitude slower
// on write/metadata paths, ext4 ahead of xv6 by small integer factors.
// docs/experiments.md maps every table and figure to the experiment that
// regenerates it.
package costmodel

import "time"

// Model holds every tunable latency in the simulation. All durations are
// virtual time. Per-byte costs are expressed in nanoseconds per 4KiB page
// to keep integer math exact.
type Model struct {
	// --- CPU / kernel path costs ---

	// CPUs is the number of cores; all charged CPU time is serviced by
	// this many channels, so thread counts beyond it stop scaling (the
	// paper's testbed has 8 cores).
	CPUs int
	// AppOpOverhead is the benchmark application's own per-operation CPU
	// work (filebench flowop dispatch, offset selection) charged by the
	// workload generator.
	AppOpOverhead time.Duration

	// SyscallCrossing is charged once on entry plus once on exit of every
	// system call (mode switch, register save/restore).
	SyscallCrossing time.Duration
	// VFSDispatch is the cost of the VFS layer locating the inode/dentry
	// and dispatching through the operations vector.
	VFSDispatch time.Duration
	// BentoDispatch is the extra translation BentoFS performs between VFS
	// and the file-operations API. The paper's design argues this is small.
	BentoDispatch time.Duration
	// WrapperCheck is the runtime cost of one BentoKS safe-wrapper argument
	// check (§4.7: "checks are not performed often and are simple").
	WrapperCheck time.Duration
	// PageCacheLookup is the cost of a radix-tree lookup in the page cache.
	PageCacheLookup time.Duration
	// BufferCacheLookup is the cost of a buffer-cache (sb_bread) hash probe.
	BufferCacheLookup time.Duration
	// CopyPer4K is the cost of copying one 4KiB page between user and
	// kernel buffers (or between kernel buffers).
	CopyPer4K time.Duration

	// --- Block device ---

	// DevChannels is the number of NVMe queue pairs the device serves
	// concurrently (queue-depth parallelism).
	DevChannels int
	// DevReadBase/DevRead4K: service time of a read command: base plus
	// per-4KiB transfer.
	DevReadBase time.Duration
	DevRead4K   time.Duration
	// DevWriteBase/DevWrite4K: service time of a write command into the
	// device's volatile write cache.
	DevWriteBase time.Duration
	DevWrite4K   time.Duration
	// DevFlushBase is the cost of a FLUSH command (forcing the volatile
	// write cache to NAND). Consumer NVMe parts without power-loss
	// protection take milliseconds here; this is the dominant term in the
	// paper's FUSE slowdowns.
	DevFlushBase time.Duration
	// DevFlushPer4K is the additional FLUSH cost per dirty cached page.
	DevFlushPer4K time.Duration

	// --- Object store (internal/netstore) ---

	// NetChannels bounds concurrent in-flight object-store requests
	// (the HTTP connection pool); GETs and PUTs queue behind it.
	NetChannels int
	// NetGetBase is the first-byte latency of a GET: request round trip
	// plus the store's time-to-first-byte. Dominated by network RTT, so
	// it is what WithNet's latency argument (bentobench -netlat) sets.
	NetGetBase time.Duration
	// NetPutBase is the first-byte latency of a PUT (request round trip
	// plus store-side admission).
	NetPutBase time.Duration
	// NetPer4K is the streaming cost per 4KiB of object payload in
	// either direction — the inverse of link bandwidth (WithNet's
	// bandwidth argument, bentobench -netbw). First-byte vs streaming
	// cost is what makes large objects amortize round trips.
	NetPer4K time.Duration
	// NetFlushBase is the cost of the durability barrier against the
	// object store (e.g. waiting out replication acks) after the dirty
	// PUTs themselves have completed.
	NetFlushBase time.Duration
	// NetTimeoutMult is the per-request client timeout as a multiple of
	// the request's nominal (untailed) service time: a request whose
	// drawn service time exceeds the timeout fails at the deadline and
	// is retried. Zero disables timeouts. Expressing the deadline as a
	// multiplier keeps it scale-aware under WithNet.
	NetTimeoutMult int
	// NetBackoffBase is the delay before the first retry of a failed
	// object-store request; retry k waits min(NetBackoffBase<<k,
	// NetBackoffCap) plus deterministic jitter.
	NetBackoffBase time.Duration
	// NetBackoffCap caps the exponential retry backoff. It also sets
	// the circuit breaker's cooldown (a fixed multiple of the cap).
	NetBackoffCap time.Duration
	// NetHedgeMult is the hedged-GET delay as a multiple of the
	// request's nominal service time: if the primary GET has not
	// completed by then, a second request is issued and the first
	// completion wins. Zero disables hedging. Only GETs hedge — PUTs
	// are not idempotent against the staged-write accounting.
	NetHedgeMult int

	// --- FUSE transport ---

	// CtxSwitch is one scheduler wakeup (app → daemon or daemon → app).
	CtxSwitch time.Duration
	// FuseMsg is the cost of marshaling one request or reply header.
	FuseMsg time.Duration
	// UserBlockSyscall is the extra cost of performing one block I/O from
	// userspace through the O_DIRECT file interface: user/kernel crossing
	// plus the kernel's direct-I/O setup. The paper measures 200–400ns of
	// crossing plus the file-interface overhead on top.
	UserBlockSyscall time.Duration

	// --- Writeback path ---

	// WritepageCall is the per-call overhead of the VFS baseline's
	// single-page ->writepage writeback.
	WritepageCall time.Duration
	// WritepagesCall is the per-call overhead of Bento's batched
	// ->writepages writeback (amortized across the batch).
	WritepagesCall time.Duration

	// --- Direct data path (single-copy caching) ---

	// DirectReadSetup is the per-block CPU cost of a buffer-cache-bypass
	// read: building the bio and mapping the destination page for DMA
	// straight from the device, with no cache insertion or eviction work.
	// Charged instead of BufferCacheLookup on the data read path.
	DirectReadSetup time.Duration
	// DirectWriteSetup is the per-block CPU cost of submitting a
	// buffer-cache-bypass write (bio setup + DMA mapping of the source
	// page). The device service time is charged separately, and batched
	// submitters overlap it across the device queues.
	DirectWriteSetup time.Duration

	// --- Background I/O (internal/iodaemon) ---

	// ReadaheadUpdate is the per-read cost of the sequential-access
	// detector: checking the request against the per-file window and
	// advancing it (the ondemand_readahead bookkeeping).
	ReadaheadUpdate time.Duration
	// AsyncFillPage is the per-page CPU cost the read-ahead worker pays
	// to allocate a page and queue its asynchronous device fill.
	AsyncFillPage time.Duration
	// FlusherWakeup is the cost of waking the background write-back
	// flusher: the dirtier queues work and the flusher thread picks it up
	// (one scheduler round trip, charged to each side).
	FlusherWakeup time.Duration
}

// Default returns the calibrated model used for all experiments.
func Default() *Model {
	return &Model{
		CPUs:              8,
		AppOpOverhead:     8 * time.Microsecond,
		SyscallCrossing:   1200 * time.Nanosecond,
		VFSDispatch:       900 * time.Nanosecond,
		BentoDispatch:     120 * time.Nanosecond,
		WrapperCheck:      6 * time.Nanosecond,
		PageCacheLookup:   250 * time.Nanosecond,
		BufferCacheLookup: 150 * time.Nanosecond,
		CopyPer4K:         700 * time.Nanosecond,

		DevChannels:   8,
		DevReadBase:   70 * time.Microsecond,
		DevRead4K:     2 * time.Microsecond,
		DevWriteBase:  18 * time.Microsecond,
		DevWrite4K:    1500 * time.Nanosecond,
		DevFlushBase:  4 * time.Millisecond,
		DevFlushPer4K: 4 * time.Microsecond,

		// LAN object store: ~0.5ms to first byte, ~330MB/s streaming,
		// a few ms to harden a commit. The netstore experiment's "wan"
		// preset scales these up; see internal/harness.
		NetChannels:    16,
		NetGetBase:     500 * time.Microsecond,
		NetPutBase:     600 * time.Microsecond,
		NetPer4K:       12 * time.Microsecond,
		NetFlushBase:   2 * time.Millisecond,
		NetTimeoutMult: 6,
		NetBackoffBase: 200 * time.Microsecond,
		NetBackoffCap:  5 * time.Millisecond,
		NetHedgeMult:   3,

		CtxSwitch:        4 * time.Microsecond,
		FuseMsg:          900 * time.Nanosecond,
		UserBlockSyscall: 2500 * time.Nanosecond,

		WritepageCall:  1800 * time.Nanosecond,
		WritepagesCall: 2600 * time.Nanosecond,

		DirectReadSetup:  220 * time.Nanosecond,
		DirectWriteSetup: 220 * time.Nanosecond,

		ReadaheadUpdate: 120 * time.Nanosecond,
		AsyncFillPage:   350 * time.Nanosecond,
		FlusherWakeup:   2 * time.Microsecond,
	}
}

// Fast returns a model with every cost reduced to nearly nothing. Unit
// tests that exercise correctness (not performance) use it so virtual time
// stays tiny and tests stay readable.
func Fast() *Model {
	return &Model{
		CPUs:              64,
		AppOpOverhead:     0,
		SyscallCrossing:   1 * time.Nanosecond,
		VFSDispatch:       1 * time.Nanosecond,
		BentoDispatch:     1 * time.Nanosecond,
		WrapperCheck:      0,
		PageCacheLookup:   1 * time.Nanosecond,
		BufferCacheLookup: 1 * time.Nanosecond,
		CopyPer4K:         1 * time.Nanosecond,

		DevChannels:   8,
		DevReadBase:   10 * time.Nanosecond,
		DevRead4K:     1 * time.Nanosecond,
		DevWriteBase:  10 * time.Nanosecond,
		DevWrite4K:    1 * time.Nanosecond,
		DevFlushBase:  20 * time.Nanosecond,
		DevFlushPer4K: 1 * time.Nanosecond,

		NetChannels:    16,
		NetGetBase:     10 * time.Nanosecond,
		NetPutBase:     10 * time.Nanosecond,
		NetPer4K:       1 * time.Nanosecond,
		NetFlushBase:   20 * time.Nanosecond,
		NetTimeoutMult: 6,
		NetBackoffBase: 10 * time.Nanosecond,
		NetBackoffCap:  100 * time.Nanosecond,
		NetHedgeMult:   3,

		CtxSwitch:        2 * time.Nanosecond,
		FuseMsg:          1 * time.Nanosecond,
		UserBlockSyscall: 2 * time.Nanosecond,

		WritepageCall:  1 * time.Nanosecond,
		WritepagesCall: 1 * time.Nanosecond,

		DirectReadSetup:  1 * time.Nanosecond,
		DirectWriteSetup: 1 * time.Nanosecond,

		ReadaheadUpdate: 1 * time.Nanosecond,
		AsyncFillPage:   1 * time.Nanosecond,
		FlusherWakeup:   1 * time.Nanosecond,
	}
}

// pages converts a byte count to a number of 4KiB pages, rounding up, with
// a minimum of one page for non-zero transfers.
func pages(bytes int) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64((bytes + 4095) / 4096)
}

// Copy returns the cost of copying bytes between buffers.
func (m *Model) Copy(bytes int) time.Duration {
	return time.Duration(pages(bytes)) * m.CopyPer4K
}

// DevRead returns the device service time for reading bytes.
func (m *Model) DevRead(bytes int) time.Duration {
	return m.DevReadBase + time.Duration(pages(bytes))*m.DevRead4K
}

// DevWrite returns the device service time for writing bytes into the
// device write cache.
func (m *Model) DevWrite(bytes int) time.Duration {
	return m.DevWriteBase + time.Duration(pages(bytes))*m.DevWrite4K
}

// DevFlush returns the cost of a FLUSH with dirtyBytes outstanding in the
// device write cache.
func (m *Model) DevFlush(dirtyBytes int) time.Duration {
	return m.DevFlushBase + time.Duration(pages(dirtyBytes))*m.DevFlushPer4K
}

// NetGet returns the object-store service time for fetching a bytes-sized
// object: first-byte latency plus streaming transfer.
func (m *Model) NetGet(bytes int) time.Duration {
	return m.NetGetBase + time.Duration(pages(bytes))*m.NetPer4K
}

// NetPut returns the object-store service time for storing a bytes-sized
// object.
func (m *Model) NetPut(bytes int) time.Duration {
	return m.NetPutBase + time.Duration(pages(bytes))*m.NetPer4K
}

// NetFlush returns the cost of the object-store durability barrier,
// charged after the dirty PUTs it fences.
func (m *Model) NetFlush() time.Duration {
	return m.NetFlushBase
}

// WithNet returns a copy of the model at another point of the
// object-store latency space; m itself is shared by concurrently running
// cells and is never written. lat > 0 sets the GET and PUT first-byte
// latency and scales the flush barrier to 4x it (the default model's
// ratio); bwMBps > 0 sets the streaming bandwidth (4096 bytes at
// bwMBps MB/s is 4_096_000/bwMBps ns per 4KiB). A zero leaves that
// entry as it is.
func (m *Model) WithNet(lat time.Duration, bwMBps int) *Model {
	c := *m
	if lat > 0 {
		c.NetGetBase = lat
		c.NetPutBase = lat
		c.NetFlushBase = 4 * lat
	}
	if bwMBps > 0 {
		c.NetPer4K = time.Duration(4_096_000/bwMBps) * time.Nanosecond
	}
	return &c
}
