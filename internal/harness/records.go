package harness

// Record is one measured benchmark cell in machine-readable form, the
// unit of `bentobench -json` output. The perf trajectory across PRs is
// tracked by diffing these records, so the field set is append-only.
type Record struct {
	Experiment string  `json:"experiment"` // figure/table id ("fig2", "table4", "stream")
	Variant    string  `json:"variant"`    // row ("Bento", "FUSE", ...)
	Cell       string  `json:"cell"`       // workload cell name ("read-seq-1t-4k")
	Ops        int64   `json:"ops"`
	Bytes      int64   `json:"bytes"`
	ElapsedNS  int64   `json:"elapsed_ns"` // virtual time
	OpsPerSec  float64 `json:"ops_per_sec"`
	MBps       float64 `json:"mbps"`
	Errs       int64   `json:"errs"`

	// Metrics is the cell's trace-counter snapshot (under `bentobench
	// -metrics`): stable snake_case counter names to values — cache
	// hits/misses, journal commits, FUSE round-trips, and friends.
	// Omitted (keeping the output byte-identical to untraced runs)
	// unless metrics are enabled. Counters are virtual-time artifacts
	// and deterministic, but remain informational: no gate compares
	// them.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}
