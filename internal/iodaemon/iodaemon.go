// Package iodaemon holds the policies of the kernel's background I/O:
// when a sequential reader earns read-ahead and how far (Window), and how
// write-back batches a file's dirty pages (AppendRuns). The mechanism —
// the fill batches, the flusher task and the dirty-page throttle — is the
// kernel mount's (internal/kernel); this package knows nothing of tasks,
// clocks or devices.
//
// The paper's headline result is that a kernel-resident file system
// keeps kernel-grade performance because it sits *behind* the page
// cache — with read-ahead hiding device latency on sequential reads and
// a background flusher batching dirty pages out — while a FUSE file
// system enjoys neither. The kernel runs both for every mount that
// enables them; the FUSE baseline deliberately runs without them,
// preserving the asymmetry the paper measures.
package iodaemon

// Config is the background I/O subsystem's configuration. It has no
// fields: the read-ahead window's ramp (4 pages, capped at 32) and the
// background write-back threshold (half the mount's dirty limit) each
// have one value in use.
type Config struct{}

// Batch names a fill batch's trace instant, which says why the batch
// was submitted.
type Batch string

const (
	// WindowBatch fills the read-ahead window ahead of a sequential
	// stream.
	WindowBatch Batch = "ra-batch"
	// DemandBatch fills the pages a demand read missed, before the
	// reader waits for them.
	DemandBatch Batch = "ra-sync"
)
