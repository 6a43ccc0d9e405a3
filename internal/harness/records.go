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

	// Quantities are the cell's other measured numbers by a name
	// declared in Quantities (the upgrade pause, a netfaults cell's
	// retry count). Unlike Metrics they are always published and gated.
	Quantities map[string]int64 `json:"quantities,omitempty"`
}

// Better is the direction in which a quantity improves: Lower for a
// cost, TwoSided for a count (fewer retries is not a slowdown), which a
// gate fails when it moves beyond tolerance either way.
type Better string

const (
	Lower    Better = "lower"
	TwoSided Better = "two-sided"
)

// Quantities declares every quantity a cell may publish and its better
// direction. The unit is the name's suffix: _ns is virtual
// nanoseconds, _bytes is bytes, and a bare name is a count.
var Quantities = map[string]Better{
	"pause_ns":     Lower,    // upgrade: quiesce-to-resume pause
	"xfer_ns":      Lower,    // upgrade: state-transfer phase
	"xfer_bytes":   TwoSided, // upgrade: serialized state size
	"maxlat_ns":    Lower,    // upgrade: the window's slowest single op
	"net_retries":  TwoSided, // netfaults: retries the store issued
	"net_degraded": TwoSided, // netfaults: serves while the breaker was open
}
