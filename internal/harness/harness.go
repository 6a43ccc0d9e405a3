// Package harness assembles the paper's evaluation: it mounts each file
// system variant (Bento, C-kernel/VFS, FUSE, ext4) on a fresh simulated
// device and regenerates every table and figure of the evaluation
// section. cmd/bentobench and bench_test.go are thin wrappers over it.
package harness

import (
	"fmt"
	"strings"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/filebench"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/netstore"
	"bento/internal/trace"
)

// Variant names, matching the paper's bar labels.
const (
	VariantBento   = "Bento"    // xv6 in safe code on the Bento framework
	VariantCKernel = "C-Kernel" // xv6 in C against the VFS layer
	VariantFUSE    = "FUSE"     // the same xv6 at user level behind FUSE
	VariantExt4    = "Ext4"     // ext4, data=journal
)

// RowBentoNoBypass labels the streaming scenario's study row: Bento
// mounted with the row's cells' noBypass option set, so file contents are
// double-cached (page cache + buffer cache) and journaled, the seed's
// behaviour. It is a row of one experiment, not a variant NewTarget
// knows, and every run publishes it next to Bento.
const RowBentoNoBypass = "Bento-nobypass"

// Storage backend names (Options.Backend / bentobench -backend).
const (
	// BackendLocal is the RAM-backed NVMe model (blockdev's default).
	BackendLocal = "local"
	// BackendNetstore is the object-store tier (internal/netstore).
	BackendNetstore = "netstore"
)

// Backends lists the selectable storage backends.
var Backends = []string{BackendLocal, BackendNetstore}

// XV6Variants is the trio compared in every micro experiment.
var XV6Variants = []string{VariantBento, VariantCKernel, VariantFUSE}

// AllVariants adds ext4 for the macrobenchmarks (Table 6).
var AllVariants = []string{VariantBento, VariantCKernel, VariantFUSE, VariantExt4}

// Options configures a harness run.
type Options struct {
	Model      *costmodel.Model
	DevBlocks  int           // device size in 4K blocks
	NInodes    uint32        // inode table size (xv6 variants)
	Duration   time.Duration // virtual measurement window
	MaxOps     int64         // per-thread op cap (bounds host time)
	MacroFiles int           // dataset scale for macro personalities
	StreamMB   int           // total stream size for the streaming scenario

	// Parallel bounds the host-worker pool the cell runner uses: that
	// many benchmark cells execute concurrently on the host (<= 0 means
	// runtime.NumCPU(); 1 runs cells sequentially, the pre-parallel
	// behaviour). Each cell builds its own kernel, device, and clocks
	// and shares no mutable state with other cells, so this changes
	// wall-clock only — every virtual-time result, and therefore the
	// -json output, is byte-identical at any setting.
	Parallel int

	// Metrics attaches a trace recorder to every cell and exports its
	// counter snapshot as the record's `metrics` map. Off by default so
	// the published -json records keep their exact historical bytes.
	Metrics bool

	// TraceDir, when non-empty, attaches a trace recorder to every cell
	// and writes one Chrome/Perfetto trace-event JSON file per cell
	// (named <experiment>_<variant>_<cell>.trace.json) into the
	// directory, which must exist. Traces are on the virtual timeline
	// and byte-identical across runs, hosts, and -parallel levels.
	TraceDir string

	// Backend selects the storage tier every cell's device mounts on:
	// BackendLocal ("" or "local", the NVMe model) or BackendNetstore
	// (the object-store tier, priced by Model's Net* entries — see
	// costmodel.Model.WithNet for moving them). The netstore and
	// netfaults experiments ignore this and always run their own fixed
	// latency presets, so their published cells are the same whichever
	// backend the rest of the matrix uses.
	Backend string

	// Faults, with the netstore backend, arms the store's deterministic
	// network-fault model (the -neterr and -nettail flags set ErrProb
	// and TailMult). The zero value is a clean network.
	Faults netstore.FaultConfig

	// noBypass disables single-copy data caching on the in-kernel
	// variants: file contents go back through each file system's buffer
	// cache (and journal), the seed's double-caching behaviour. Only the
	// RowBentoNoBypass cells set it. The FUSE variant always keeps its
	// user-level cache — a userspace daemon cannot DMA into kernel
	// pages, which is part of the asymmetry the paper measures.
	noBypass bool
}

// traced reports whether cells carry a trace recorder.
func (o Options) traced() bool { return o.Metrics || o.TraceDir != "" }

// Defaults returns the options used for docs/experiments.md.
func Defaults() Options {
	return Options{
		Model:      costmodel.Default(),
		DevBlocks:  262144, // 1 GiB
		NInodes:    65536,
		Duration:   400 * time.Millisecond,
		MaxOps:     20000,
		MacroFiles: 64,
		StreamMB:   48,
	}
}

// Quick returns reduced options for unit tests and -bench runs.
func Quick() Options {
	o := Defaults()
	o.DevBlocks = 65536 // 256 MiB
	o.NInodes = 8192
	o.Duration = 60 * time.Millisecond
	o.MaxOps = 2000
	o.MacroFiles = 16
	// Past every variant's buffer-cache capacity (ext4's is 32 MiB), so
	// the "cold" pass really reads the device rather than the file
	// system's block cache.
	o.StreamMB = 40
	return o
}

// NewTarget mkfs's a fresh device and mounts the named variant on it
// with its Published config, the bypass off in the cell's noBypass case.
// Every in-kernel variant also gets the kernel's background I/O
// (read-ahead + write-back flusher, Mount.EnableIODaemon); the FUSE variant
// does not — a userspace file system sits in front of none of these
// mechanisms, which is the asymmetry the paper measures.
func NewTarget(variant string, o Options) (filebench.Target, error) {
	k := kernel.New(o.Model)
	if o.traced() {
		// Attached before any task or I/O exists: tasks copy the recorder
		// pointer at creation, so mkfs/mount/setup record too.
		rec := trace.New()
		k.SetRecorder(rec)
	}
	devCfg := blockdev.Config{Blocks: o.DevBlocks, Model: o.Model}
	switch o.Backend {
	case "", BackendLocal:
		// blockdev's implicit local backend.
	case BackendNetstore:
		devCfg.Backend = netstore.New(netstore.Config{
			Name: "net0", BlockSize: 4096, Blocks: o.DevBlocks, Model: o.Model,
			Faults: o.Faults,
		})
	default:
		return filebench.Target{}, fmt.Errorf("harness: unknown backend %q (have %v)", o.Backend, Backends)
	}
	dev, err := blockdev.New(devCfg)
	if err != nil {
		return filebench.Target{}, err
	}
	dev.SetRecorder(k.Recorder())

	mc := Published(variant)
	mc.Bypass = !o.noBypass
	m, err := Mount(k, k.NewTask("mount"), dev, variant, mc, o.NInodes)
	if err != nil {
		return filebench.Target{}, err
	}
	if variant != VariantFUSE {
		m.EnableIODaemon(iodaemon.Config{})
	}
	return filebench.Target{K: k, M: m}, nil
}

// Table renders rows×columns of measurements as fixed-width text.
func Table(title string, colNames []string, rowNames []string, value func(row, col int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range colNames {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for r, rn := range rowNames {
		fmt.Fprintf(&b, "%-14s", rn)
		for c := range colNames {
			fmt.Fprintf(&b, "%14s", value(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
