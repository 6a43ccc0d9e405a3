package harness

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"bento/internal/filebench"
	"bento/internal/trace"
)

// Experiment identifiers (the paper's table and figure numbers).
const (
	ExpTable1 = "table1"
	ExpTable2 = "table2"
	ExpFig2   = "fig2"
	ExpFig3   = "fig3"
	ExpFig4   = "fig4"
	ExpTable4 = "table4"
	ExpTable5 = "table5"
	ExpTable6 = "table6"
	// ExpStream is this reproduction's streaming scenario (not a paper
	// artifact): cold end-to-end sequential passes — single-stream,
	// multi-stream (concurrent readers competing for read-ahead device
	// queue slots), and a sustained write — where the kernel's
	// read-ahead and background flusher, which the FUSE baseline lacks,
	// set the pace.
	ExpStream = "stream"
	// ExpUpgrade is the live-upgrade availability scenario (§4.8, this
	// reproduction's measurement of it): concurrent readers and writers
	// keep running while the Bento module is hot-swapped mid-window; the
	// pause, state-transfer cost, and worst per-op latency are reported
	// as their own benchdiff-gated cells. See upgradePlan.
	ExpUpgrade = "upgrade"
	// ExpNetstore is the multi-backend scenario: the Fig2 4KB read,
	// streaming read, and varmail cells rerun with every variant mounted
	// on the object-store backend (internal/netstore) at two fixed
	// latency points — "lan" and "wan" — asking how the kernel-vs-FUSE
	// gap behaves when the storage bottom is orders of magnitude slower
	// than local NVMe. The presets are pinned in netstorePresets
	// (independent of the -backend/-netlat/-netbw flags), so these cells
	// are stable benchdiff-gated artifacts. See netstorePlan.
	ExpNetstore = "netstore"
	// ExpNetfaults is the network-fault scenario: the netstore cells
	// rerun under a matrix of deterministic fault conditions — clean,
	// lossy LAN, lossy WAN, and a mid-run blackout — reporting goodput
	// (successful ops only) plus retry and degraded-serve counts as
	// their own benchdiff-gated cells. See netfaultsPlan.
	ExpNetfaults = "netfaults"
)

// AllExperiments lists every reproducible artifact in paper order, plus
// the streaming, upgrade, and netstore scenarios.
var AllExperiments = []string{ExpTable1, ExpTable2, ExpFig2, ExpFig3, ExpFig4, ExpTable4, ExpTable5, ExpTable6, ExpStream, ExpUpgrade, ExpNetstore, ExpNetfaults}

// plan is one experiment's declarative form: an ordered list of
// self-contained cells plus a renderer that turns the per-variant results
// (grouped back in spec order) into the experiment's table text. The
// specs carry all target construction and per-cell configuration inside
// their Run closures, so the runner can execute them in any order on any
// number of host workers; rows fixes the variant order for rendering and
// record emission.
type plan struct {
	rows   []string
	specs  []CellSpec
	render func(data map[string][]filebench.Result) string
}

// planFor builds the named experiment's plan. The static tables (1 and
// 2) have no measured cells: they return their text directly with a nil
// plan.
func planFor(id string, o Options) (*plan, string, error) {
	switch id {
	case ExpTable1:
		return nil, Table1Text(), nil
	case ExpTable2:
		return nil, Table2Text(), nil
	case ExpFig2:
		return fig2Plan(o), "", nil
	case ExpFig3:
		return fig3Plan(o), "", nil
	case ExpFig4:
		return fig4Plan(o), "", nil
	case ExpTable4:
		return table4Plan(o), "", nil
	case ExpTable5:
		return table5Plan(o), "", nil
	case ExpTable6:
		return table6Plan(o), "", nil
	case ExpStream:
		return streamPlan(o), "", nil
	case ExpUpgrade:
		return upgradePlan(o), "", nil
	case ExpNetstore:
		return netstorePlan(o), "", nil
	case ExpNetfaults:
		return netfaultsPlan(o), "", nil
	}
	return nil, "", fmt.Errorf("harness: unknown experiment %q (have %v)", id, AllExperiments)
}

// workingSet sizes each thread's file so the full set fits the device
// with room for metadata and the log (the paper's read files are small:
// "the file is cached very quickly").
func workingSet(o Options, threads int) int64 {
	per := int64(16 << 20)
	budget := int64(o.DevBlocks) * 4096 / 2 / int64(threads)
	if budget < per {
		per = budget
	}
	if per < 1<<20 {
		per = 1 << 20
	}
	return per
}

// finishCell attaches the cell's observability outputs to its result:
// the counter snapshot when o.Metrics, and the per-cell Chrome trace
// file when o.TraceDir. Untraced runs pass straight through.
func finishCell(tg filebench.Target, r filebench.Result, exp, variant string, o Options) (filebench.Result, error) {
	rec := tg.K.Recorder()
	if rec == nil {
		return r, nil
	}
	if o.Metrics {
		r.Metrics = rec.Counters()
	}
	if o.TraceDir != "" {
		path := filepath.Join(o.TraceDir, fmt.Sprintf("%s_%s_%s.trace.json", exp, variant, r.Name))
		if err := rec.WriteFile(path, trace.Meta{Experiment: exp, Variant: variant, Cell: r.Name}); err != nil {
			return r, fmt.Errorf("%s %s: writing trace: %w", exp, variant, err)
		}
	}
	return r, nil
}

// readCell runs one read microbenchmark cell.
func readCell(exp, variant string, o Options, threads, ioSize int, random bool) (filebench.Result, error) {
	tg, err := NewTarget(variant, o)
	if err != nil {
		return filebench.Result{}, err
	}
	r, err := filebench.ReadMicro(tg, filebench.MicroConfig{
		Threads: threads, IOSize: ioSize, FileSize: workingSet(o, threads),
		Random: random, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 1,
	})
	if err != nil {
		return r, err
	}
	return finishCell(tg, r, exp, variant, o)
}

// readThreadCells is the (threads, random) grid shared by Figures 2 and 3.
type readThreadCell struct {
	threads int
	random  bool
	label   string
}

var fig23Cells = []readThreadCell{
	{1, false, "seq-1t"}, {32, false, "seq-32t"}, {1, true, "rnd-1t"}, {32, true, "rnd-32t"},
}

// fig2Plan regenerates Figure 2: 4KB reads, ops/sec, seq/rnd × 1/32
// threads.
func fig2Plan(o Options) *plan {
	vars := XV6Variants
	cols := make([]string, len(fig23Cells))
	for i, c := range fig23Cells {
		cols[i] = c.label
	}
	var specs []CellSpec
	for _, v := range vars {
		for _, c := range fig23Cells {
			specs = append(specs, CellSpec{
				Experiment: ExpFig2, Variant: v,
				Run: func() (filebench.Result, error) {
					r, err := readCell(ExpFig2, v, o, c.threads, 4096, c.random)
					if err != nil {
						return r, fmt.Errorf("fig2 %s: %w", v, err)
					}
					return r, nil
				},
			})
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Figure 2: Read performance (4KB), ops/sec (x1000)", cols, vars,
			func(r, c int) string {
				return fmt.Sprintf("%.0f", data[vars[r]][c].OpsPerSec()/1000)
			})
	}}
}

// fig3Plan regenerates Figure 3: 32K/128K/1024K reads, throughput MBps.
func fig3Plan(o Options) *plan {
	sizes := []int{32 << 10, 128 << 10, 1024 << 10}
	vars := XV6Variants
	cols := make([]string, len(fig23Cells))
	for i, c := range fig23Cells {
		cols[i] = c.label
	}
	var specs []CellSpec
	for _, size := range sizes {
		for _, v := range vars {
			for _, c := range fig23Cells {
				specs = append(specs, CellSpec{
					Experiment: ExpFig3, Variant: v,
					Run: func() (filebench.Result, error) {
						r, err := readCell(ExpFig3, v, o, c.threads, size, c.random)
						if err != nil {
							return r, fmt.Errorf("fig3 %s %d: %w", v, size, err)
						}
						return r, nil
					},
				})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		var b strings.Builder
		for si, size := range sizes {
			b.WriteString(Table(fmt.Sprintf("Figure 3: Read performance (%dKB), MBps", size/1024),
				cols, vars, func(r, c int) string {
					return fmt.Sprintf("%.0f", data[vars[r]][si*len(fig23Cells)+c].MBps())
				}))
			b.WriteByte('\n')
		}
		return b.String()
	}}
}

// fig4Plan regenerates Figure 4: 32K/128K/1024K writes, throughput MBps,
// seq-1t / rnd-1t / rnd-32t.
func fig4Plan(o Options) *plan {
	sizes := []int{32 << 10, 128 << 10, 1024 << 10}
	cells := []readThreadCell{{1, false, "seq-1t"}, {1, true, "rnd-1t"}, {32, true, "rnd-32t"}}
	vars := XV6Variants
	cols := make([]string, len(cells))
	for i, c := range cells {
		cols[i] = c.label
	}
	var specs []CellSpec
	for _, size := range sizes {
		for _, v := range vars {
			for _, c := range cells {
				specs = append(specs, CellSpec{
					Experiment: ExpFig4, Variant: v,
					Run: func() (filebench.Result, error) {
						tg, err := NewTarget(v, o)
						if err != nil {
							return filebench.Result{}, fmt.Errorf("fig4 %s: %w", v, err)
						}
						// Sustained writes must reach storage: use a tight
						// dirty budget so write-back runs continuously, as
						// it would in the paper's 60-second filebench runs.
						tg.M.SetDirtyLimit(256)
						r, err := filebench.WriteMicro(tg, filebench.MicroConfig{
							Threads: c.threads, IOSize: size, FileSize: workingSet(o, c.threads),
							Random: c.random, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 2,
						})
						if err != nil {
							return r, fmt.Errorf("fig4 %s %d: %w", v, size, err)
						}
						return finishCell(tg, r, ExpFig4, v, o)
					},
				})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		var b strings.Builder
		for si, size := range sizes {
			b.WriteString(Table(fmt.Sprintf("Figure 4: Write performance (%dKB), MBps", size/1024),
				cols, vars, func(r, c int) string {
					return fmt.Sprintf("%.0f", data[vars[r]][si*len(cells)+c].MBps())
				}))
			b.WriteByte('\n')
		}
		return b.String()
	}}
}

// table4Plan regenerates the create microbenchmark (ops/sec, 1 and 32
// threads).
func table4Plan(o Options) *plan {
	cols := []string{"1 Thread", "32 Threads"}
	vars := XV6Variants
	var specs []CellSpec
	for _, v := range vars {
		for _, threads := range []int{1, 32} {
			specs = append(specs, CellSpec{
				Experiment: ExpTable4, Variant: v,
				Run: func() (filebench.Result, error) {
					tg, err := NewTarget(v, o)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("table4 %s: %w", v, err)
					}
					r, err := filebench.CreateFiles(tg, filebench.MetaConfig{
						Threads: threads, FileSize: 16 << 10, Duration: o.Duration, MaxOps: o.MaxOps,
					})
					if err != nil {
						return r, fmt.Errorf("table4 %s: %w", v, err)
					}
					return finishCell(tg, r, ExpTable4, v, o)
				},
			})
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Table 4: Create microbenchmark performance (ops/sec)", cols, vars,
			func(r, c int) string { return fmt.Sprintf("%.0f", data[vars[r]][c].OpsPerSec()) })
	}}
}

// table5Plan regenerates the delete microbenchmark.
func table5Plan(o Options) *plan {
	cols := []string{"1 Thread", "32 Threads"}
	vars := XV6Variants
	var specs []CellSpec
	for _, v := range vars {
		for _, threads := range []int{1, 32} {
			specs = append(specs, CellSpec{
				Experiment: ExpTable5, Variant: v,
				Run: func() (filebench.Result, error) {
					tg, err := NewTarget(v, o)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("table5 %s: %w", v, err)
					}
					files := 2048
					if v == VariantFUSE {
						files = 256 // FUSE deletes are ~60x slower; keep setup bounded
					}
					if budget := int(o.NInodes)/threads - 8; files > budget {
						files = budget // stay within the inode table
					}
					r, err := filebench.DeleteFiles(tg, filebench.MetaConfig{
						Threads: threads, Files: files, Duration: o.Duration, MaxOps: o.MaxOps,
					})
					if err != nil {
						return r, fmt.Errorf("table5 %s: %w", v, err)
					}
					return finishCell(tg, r, ExpTable5, v, o)
				},
			})
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Table 5: Delete microbenchmark performance (ops/sec)", cols, vars,
			func(r, c int) string { return fmt.Sprintf("%.0f", data[vars[r]][c].OpsPerSec()) })
	}}
}

// table6Plan regenerates the macrobenchmarks: varmail and fileserver in
// ops/sec, untar in seconds (scaled tree; lower is better).
func table6Plan(o Options) *plan {
	cols := []string{"Varmail (ops/s)", "Fileserver (ops/s)", "Untar (s)"}
	var specs []CellSpec
	for _, v := range AllVariants {
		specs = append(specs,
			CellSpec{Experiment: ExpTable6, Variant: v, Run: func() (filebench.Result, error) {
				tg, err := NewTarget(v, o)
				if err != nil {
					return filebench.Result{}, fmt.Errorf("table6 varmail %s: %w", v, err)
				}
				r, err := filebench.Varmail(tg, filebench.MacroConfig{
					Threads: 16, Files: o.MacroFiles, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 3,
				})
				if err != nil {
					return r, fmt.Errorf("table6 varmail %s: %w", v, err)
				}
				return finishCell(tg, r, ExpTable6, v, o)
			}},
			CellSpec{Experiment: ExpTable6, Variant: v, Run: func() (filebench.Result, error) {
				tg, err := NewTarget(v, o)
				if err != nil {
					return filebench.Result{}, fmt.Errorf("table6 fileserver %s: %w", v, err)
				}
				r, err := filebench.Fileserver(tg, filebench.MacroConfig{
					Threads: 50, Files: o.MacroFiles / 4, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 4,
				})
				if err != nil {
					return r, fmt.Errorf("table6 fileserver %s: %w", v, err)
				}
				return finishCell(tg, r, ExpTable6, v, o)
			}},
			CellSpec{Experiment: ExpTable6, Variant: v, Run: func() (filebench.Result, error) {
				tg, err := NewTarget(v, o)
				if err != nil {
					return filebench.Result{}, fmt.Errorf("table6 untar %s: %w", v, err)
				}
				spec := filebench.DefaultUntarSpec()
				if o.MacroFiles < 64 {
					spec.Dirs = 24 // quick mode
				}
				r, err := filebench.Untar(tg, spec)
				if err != nil {
					return r, fmt.Errorf("table6 untar %s: %w", v, err)
				}
				return finishCell(tg, r, ExpTable6, v, o)
			}},
		)
	}
	return &plan{rows: AllVariants, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Table 6: Macrobenchmark performance", cols, AllVariants,
			func(r, c int) string {
				res := data[AllVariants[r]][c]
				if c == 2 {
					return fmt.Sprintf("%.2f", res.Elapsed.Seconds())
				}
				return fmt.Sprintf("%.0f", res.OpsPerSec())
			})
	}}
}

// streamPlan runs the streaming scenario per variant, reported in MBps: a
// cold sequential read pass, a multi-stream read pass (o.StreamThreads
// concurrent readers over per-thread files — the same total bytes —
// whose read-ahead windows compete for the device's queue slots), and a
// sustained sequential write (fsync at the end). A tight dirty budget
// keeps the write stream feeding the flusher (or, for FUSE, stalling on
// its own write-back) instead of ending as one giant cached burst.
func streamPlan(o Options) *plan {
	vars := streamVariants(o)
	streams := o.StreamThreads
	if streams <= 0 {
		streams = Defaults().StreamThreads // unset; an explicit value is honored
	}
	// One stream IS the single-stream row: running the multi-stream cell
	// anyway would emit a second record under the same cell name, which
	// the benchdiff join would silently collapse.
	multi := streams > 1
	cols := []string{"read (MB/s)", "write (MB/s)"}
	if multi {
		cols = []string{"read (MB/s)", fmt.Sprintf("read-%dt (MB/s)", streams), "write (MB/s)"}
	}
	fileSize := int64(o.StreamMB) << 20
	if fileSize <= 0 {
		fileSize = 32 << 20
	}
	if budget := int64(o.DevBlocks) * 4096 / 4; fileSize > budget {
		fileSize = budget // leave room for metadata, the log, and slack
	}
	var specs []CellSpec
	for _, v := range vars {
		specs = append(specs, CellSpec{Experiment: ExpStream, Variant: v,
			Run: func() (filebench.Result, error) {
				tg, err := NewTarget(v, o)
				if err != nil {
					return filebench.Result{}, fmt.Errorf("stream read %s: %w", v, err)
				}
				r, err := filebench.StreamRead(tg, filebench.StreamConfig{Threads: 1, FileSize: fileSize})
				if err != nil {
					return r, fmt.Errorf("stream read %s: %w", v, err)
				}
				return finishCell(tg, r, ExpStream, v, o)
			}})
		if multi {
			specs = append(specs, CellSpec{Experiment: ExpStream, Variant: v,
				Run: func() (filebench.Result, error) {
					// Multi-stream: the per-thread size divides the same
					// total, so the row isolates queue competition rather
					// than extra data.
					tg, err := NewTarget(v, o)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("stream read-%dt %s: %w", streams, v, err)
					}
					r, err := filebench.StreamRead(tg, filebench.StreamConfig{
						Threads: streams, FileSize: fileSize / int64(streams),
					})
					if err != nil {
						return r, fmt.Errorf("stream read-%dt %s: %w", streams, v, err)
					}
					return finishCell(tg, r, ExpStream, v, o)
				}})
		}
		specs = append(specs, CellSpec{Experiment: ExpStream, Variant: v,
			Run: func() (filebench.Result, error) {
				tg, err := NewTarget(v, o)
				if err != nil {
					return filebench.Result{}, fmt.Errorf("stream write %s: %w", v, err)
				}
				tg.M.SetDirtyLimit(512)
				r, err := filebench.StreamWrite(tg, filebench.StreamConfig{Threads: 1, FileSize: fileSize})
				if err != nil {
					return r, fmt.Errorf("stream write %s: %w", v, err)
				}
				return finishCell(tg, r, ExpStream, v, o)
			}})
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table(fmt.Sprintf("Streaming scenario (%d MiB cold sequential pass), MBps", fileSize>>20),
			cols, vars, func(r, c int) string {
				return fmt.Sprintf("%.0f", data[vars[r]][c].MBps())
			})
	}}
}

// netstorePreset is one latency point of the netstore experiment.
type netstorePreset struct {
	name string
	lat  time.Duration // request first-byte latency (→ Options.NetLat)
	bw   int           // streaming bandwidth, MB/s (→ Options.NetBWMBps)
}

// netstorePresets pins the experiment's two latency points. They are
// deliberately independent of the -netlat/-netbw flags (those steer
// ad-hoc runs of the other experiments under -backend=netstore): the
// published cells must mean the same thing in every baseline.
var netstorePresets = []netstorePreset{
	{name: "lan", lat: 500 * time.Microsecond, bw: 320},
	{name: "wan", lat: 20 * time.Millisecond, bw: 80},
}

// netstorePlan builds the multi-backend scenario: for each variant and
// each latency preset, the Fig2 4KB sequential read cell, the cold
// streaming read, and varmail — the three workloads where the paper's
// mechanisms (cache hits, read-ahead, fsync discipline) meet network
// storage most differently. Cell names carry the preset prefix
// ("lan-read-seq-1t-4k") so the two latency points stay distinct
// benchdiff keys.
func netstorePlan(o Options) *plan {
	vars := AllVariants
	var cols []string
	for _, p := range netstorePresets {
		cols = append(cols,
			p.name+"-read4k (kop/s)",
			p.name+"-stream (MB/s)",
			p.name+"-varmail (op/s)",
		)
	}
	fileSize := int64(o.StreamMB) << 20
	if fileSize <= 0 {
		fileSize = 32 << 20
	}
	if budget := int64(o.DevBlocks) * 4096 / 4; fileSize > budget {
		fileSize = budget
	}
	var specs []CellSpec
	for _, v := range vars {
		for _, p := range netstorePresets {
			// Each cell forces the netstore backend at its preset; the
			// caller's -backend/-netlat/-netbw choices don't reach these
			// published cells.
			no := o
			no.Backend = BackendNetstore
			no.NetLat = p.lat
			no.NetBWMBps = p.bw
			prefix := p.name + "-"
			specs = append(specs,
				CellSpec{Experiment: ExpNetstore, Variant: v, Run: func() (filebench.Result, error) {
					tg, err := NewTarget(v, no)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("netstore %s read4k %s: %w", prefix, v, err)
					}
					r, err := filebench.ReadMicro(tg, filebench.MicroConfig{
						Threads: 1, IOSize: 4096, FileSize: workingSet(no, 1),
						Duration: no.Duration, MaxOps: no.MaxOps, Seed: 1,
					})
					if err != nil {
						return r, fmt.Errorf("netstore %s read4k %s: %w", prefix, v, err)
					}
					r.Name = prefix + r.Name
					return finishCell(tg, r, ExpNetstore, v, no)
				}},
				CellSpec{Experiment: ExpNetstore, Variant: v, Run: func() (filebench.Result, error) {
					tg, err := NewTarget(v, no)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("netstore %s stream %s: %w", prefix, v, err)
					}
					r, err := filebench.StreamRead(tg, filebench.StreamConfig{Threads: 1, FileSize: fileSize})
					if err != nil {
						return r, fmt.Errorf("netstore %s stream %s: %w", prefix, v, err)
					}
					r.Name = prefix + r.Name
					return finishCell(tg, r, ExpNetstore, v, no)
				}},
				CellSpec{Experiment: ExpNetstore, Variant: v, Run: func() (filebench.Result, error) {
					tg, err := NewTarget(v, no)
					if err != nil {
						return filebench.Result{}, fmt.Errorf("netstore %s varmail %s: %w", prefix, v, err)
					}
					r, err := filebench.Varmail(tg, filebench.MacroConfig{
						Threads: 16, Files: o.MacroFiles, Duration: no.Duration, MaxOps: no.MaxOps, Seed: 3,
					})
					if err != nil {
						return r, fmt.Errorf("netstore %s varmail %s: %w", prefix, v, err)
					}
					r.Name = prefix + r.Name
					return finishCell(tg, r, ExpNetstore, v, no)
				}},
			)
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Netstore scenario: object-store backend at two latency points", cols, vars,
			func(r, c int) string {
				res := data[vars[r]][c]
				switch c % 3 {
				case 0:
					return fmt.Sprintf("%.1f", res.OpsPerSec()/1000)
				case 1:
					return fmt.Sprintf("%.1f", res.MBps())
				default:
					return fmt.Sprintf("%.0f", res.OpsPerSec())
				}
			})
	}}
}

// Netstore runs the multi-backend scenario (see netstorePlan).
func Netstore(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpNetstore, o)
}

// Fig2 regenerates Figure 2: 4KB reads, ops/sec, seq/rnd × 1/32 threads.
func Fig2(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpFig2, o)
}

// Fig3 regenerates Figure 3: 32K/128K/1024K reads, throughput MBps.
func Fig3(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpFig3, o)
}

// Fig4 regenerates Figure 4: 32K/128K/1024K writes, throughput MBps,
// seq-1t / rnd-1t / rnd-32t.
func Fig4(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpFig4, o)
}

// Table4 regenerates the create microbenchmark (ops/sec, 1 and 32
// threads).
func Table4(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpTable4, o)
}

// Table5 regenerates the delete microbenchmark.
func Table5(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpTable5, o)
}

// Table6 regenerates the macrobenchmarks: varmail and fileserver in
// ops/sec, untar in seconds (scaled tree; lower is better).
func Table6(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpTable6, o)
}

// Stream runs the streaming scenario per variant (see streamPlan).
func Stream(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpStream, o)
}

// Run executes one experiment by id and returns its rendered output.
func Run(id string, o Options) (string, error) {
	s, _, err := RunRecords(id, o)
	return s, err
}
