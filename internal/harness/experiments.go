package harness

import (
	"fmt"
	"strings"
	"time"

	"bento/internal/buganalysis"
	"bento/internal/filebench"
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
	// pause, state-transfer cost, and worst per-op latency are the
	// cell's benchdiff-gated quantities. See upgradePlan.
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
	// (successful ops only), each cell carrying its retry and
	// degraded-serve counts as benchdiff-gated quantities. See
	// netfaultsPlan.
	ExpNetfaults = "netfaults"
)

// AllExperiments lists every reproducible artifact in paper order, plus
// the streaming, upgrade, and netstore scenarios.
var AllExperiments = []string{ExpTable1, ExpTable2, ExpFig2, ExpFig3, ExpFig4, ExpTable4, ExpTable5, ExpTable6, ExpStream, ExpUpgrade, ExpNetstore, ExpNetfaults}

// plan is one experiment's declarative form: an ordered list of
// self-contained cells plus a renderer that turns the per-row results
// (grouped back in spec order) into the experiment's table text. Each
// spec names what to mount and carries its workload, so the runner can
// execute them in any order on any number of host workers; rows fixes
// the row order for rendering and record emission.
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
		return nil, buganalysis.RenderTable1(), nil
	case ExpTable2:
		return nil, buganalysis.RenderTable2(), nil
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

// streamFileSize is the streaming scenarios' total stream size:
// o.StreamMB, clamped to a quarter of the device so metadata, the log,
// and slack still fit.
func streamFileSize(o Options) int64 {
	size := int64(o.StreamMB) << 20
	if size <= 0 {
		size = 32 << 20
	}
	if budget := int64(o.DevBlocks) * 4096 / 4; size > budget {
		size = budget
	}
	return size
}

// readThreadCell is one column of the (threads, random) grid shared by
// Figures 2 to 4.
type readThreadCell struct {
	threads int
	random  bool
	label   string
}

var fig23Cells = []readThreadCell{
	{1, false, "seq-1t"}, {32, false, "seq-32t"}, {1, true, "rnd-1t"}, {32, true, "rnd-32t"},
}

// labels returns the column headers of a cell grid.
func labels(cells []readThreadCell) []string {
	cols := make([]string, len(cells))
	for i, c := range cells {
		cols[i] = c.label
	}
	return cols
}

// readSpec is one read microbenchmark cell.
func readSpec(exp, v string, o Options, c readThreadCell, ioSize int) CellSpec {
	return CellSpec{Experiment: exp, Variant: v, Mount: v, Opts: o,
		Run: func(tg filebench.Target) (filebench.Result, error) {
			return filebench.ReadMicro(tg, filebench.MicroConfig{
				Threads: c.threads, IOSize: ioSize, FileSize: workingSet(o, c.threads),
				Random: c.random, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 1,
			})
		}}
}

// fig2Plan regenerates Figure 2: 4KB reads, ops/sec, seq/rnd × 1/32
// threads.
func fig2Plan(o Options) *plan {
	vars := XV6Variants
	var specs []CellSpec
	for _, v := range vars {
		for _, c := range fig23Cells {
			specs = append(specs, readSpec(ExpFig2, v, o, c, 4096))
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Figure 2: Read performance (4KB), ops/sec (x1000)", labels(fig23Cells), vars,
			func(r, c int) string {
				return fmt.Sprintf("%.0f", data[vars[r]][c].OpsPerSec()/1000)
			})
	}}
}

// sizedMBps renders one MBps table per I/O size from per-row results laid
// out size-major (Figures 3 and 4).
func sizedMBps(title string, sizes []int, cells []readThreadCell, vars []string, data map[string][]filebench.Result) string {
	var b strings.Builder
	for si, size := range sizes {
		b.WriteString(Table(fmt.Sprintf(title, size/1024), labels(cells), vars,
			func(r, c int) string {
				return fmt.Sprintf("%.0f", data[vars[r]][si*len(cells)+c].MBps())
			}))
		b.WriteByte('\n')
	}
	return b.String()
}

// fig3Plan regenerates Figure 3: 32K/128K/1024K reads, throughput MBps.
func fig3Plan(o Options) *plan {
	sizes := []int{32 << 10, 128 << 10, 1024 << 10}
	vars := XV6Variants
	var specs []CellSpec
	for _, size := range sizes {
		for _, v := range vars {
			for _, c := range fig23Cells {
				specs = append(specs, readSpec(ExpFig3, v, o, c, size))
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return sizedMBps("Figure 3: Read performance (%dKB), MBps", sizes, fig23Cells, vars, data)
	}}
}

// fig4Plan regenerates Figure 4: 32K/128K/1024K writes, throughput MBps,
// seq-1t / rnd-1t / rnd-32t.
func fig4Plan(o Options) *plan {
	sizes := []int{32 << 10, 128 << 10, 1024 << 10}
	cells := []readThreadCell{{1, false, "seq-1t"}, {1, true, "rnd-1t"}, {32, true, "rnd-32t"}}
	vars := XV6Variants
	var specs []CellSpec
	for _, size := range sizes {
		for _, v := range vars {
			for _, c := range cells {
				specs = append(specs, CellSpec{Experiment: ExpFig4, Variant: v, Mount: v, Opts: o,
					Run: func(tg filebench.Target) (filebench.Result, error) {
						// Sustained writes must reach storage: use a tight
						// dirty budget so write-back runs continuously, as
						// it would in the paper's 60-second filebench runs.
						tg.M.SetDirtyLimit(256)
						return filebench.WriteMicro(tg, filebench.MicroConfig{
							Threads: c.threads, IOSize: size, FileSize: workingSet(o, c.threads),
							Random: c.random, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 2,
						})
					}})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return sizedMBps("Figure 4: Write performance (%dKB), MBps", sizes, cells, vars, data)
	}}
}

// metaPlan builds a metadata microbenchmark (Tables 4 and 5): one cell
// per variant at 1 and 32 threads, rendered in ops/sec.
func metaPlan(exp, title string, o Options, run func(tg filebench.Target, v string, threads int) (filebench.Result, error)) *plan {
	vars := XV6Variants
	var specs []CellSpec
	for _, v := range vars {
		for _, threads := range []int{1, 32} {
			specs = append(specs, CellSpec{Experiment: exp, Variant: v, Mount: v, Opts: o,
				Run: func(tg filebench.Target) (filebench.Result, error) {
					return run(tg, v, threads)
				}})
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table(title, []string{"1 Thread", "32 Threads"}, vars,
			func(r, c int) string { return fmt.Sprintf("%.0f", data[vars[r]][c].OpsPerSec()) })
	}}
}

// table4Plan regenerates the create microbenchmark (ops/sec, 1 and 32
// threads).
func table4Plan(o Options) *plan {
	return metaPlan(ExpTable4, "Table 4: Create microbenchmark performance (ops/sec)", o,
		func(tg filebench.Target, _ string, threads int) (filebench.Result, error) {
			return filebench.CreateFiles(tg, filebench.MetaConfig{
				Threads: threads, Duration: o.Duration, MaxOps: o.MaxOps,
			})
		})
}

// table5Plan regenerates the delete microbenchmark.
func table5Plan(o Options) *plan {
	return metaPlan(ExpTable5, "Table 5: Delete microbenchmark performance (ops/sec)", o,
		func(tg filebench.Target, v string, threads int) (filebench.Result, error) {
			files := 2048
			if v == VariantFUSE {
				files = 256 // FUSE deletes are ~60x slower; keep setup bounded
			}
			if budget := int(o.NInodes)/threads - 8; files > budget {
				files = budget // stay within the inode table
			}
			return filebench.DeleteFiles(tg, filebench.MetaConfig{
				Threads: threads, Files: files, Duration: o.Duration, MaxOps: o.MaxOps,
			})
		})
}

// table6Plan regenerates the macrobenchmarks: varmail and fileserver in
// ops/sec, untar in seconds (scaled tree; lower is better).
func table6Plan(o Options) *plan {
	cols := []string{"Varmail (ops/s)", "Fileserver (ops/s)", "Untar (s)"}
	workloads := []func(tg filebench.Target) (filebench.Result, error){
		func(tg filebench.Target) (filebench.Result, error) {
			return filebench.Varmail(tg, filebench.MacroConfig{
				Threads: 16, Files: o.MacroFiles, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 3,
			})
		},
		func(tg filebench.Target) (filebench.Result, error) {
			return filebench.Fileserver(tg, filebench.MacroConfig{
				Threads: 50, Files: o.MacroFiles / 4, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 4,
			})
		},
		func(tg filebench.Target) (filebench.Result, error) {
			dirs := 120
			if o.MacroFiles < 64 {
				dirs = 24 // quick mode
			}
			return filebench.Untar(tg, dirs)
		},
	}
	var specs []CellSpec
	for _, v := range AllVariants {
		for _, run := range workloads {
			specs = append(specs, CellSpec{Experiment: ExpTable6, Variant: v, Mount: v, Opts: o,
				Run: func(tg filebench.Target) (filebench.Result, error) { return run(tg) }})
		}
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
// cold sequential read pass, a multi-stream read pass (four concurrent
// readers over per-thread files — the same total bytes, so the row
// isolates their read-ahead windows' competition for the device's queue
// slots rather than extra data), and a sustained sequential write (fsync
// at the end). A tight dirty budget keeps the write stream feeding the
// flusher (or, for FUSE, stalling on its own write-back) instead of
// ending as one giant cached burst.
//
// Rows are every variant, ext4 included (the stream is also a macro-style
// workload), plus the RowBentoNoBypass study row — the cold stream is the
// scenario where double-caching flatters the numbers most, so the
// comparison is published next to the honest cells.
func streamPlan(o Options) *plan {
	const streams = 4
	rows := append(append([]string(nil), AllVariants...), RowBentoNoBypass)
	fileSize := streamFileSize(o)
	reads := []filebench.StreamConfig{{Threads: 1, FileSize: fileSize}, {Threads: streams, FileSize: fileSize / streams}}
	cols := []string{"read (MB/s)", fmt.Sprintf("read-%dt (MB/s)", streams), "write (MB/s)"}
	var specs []CellSpec
	for _, row := range rows {
		// The row's cells differ only in Run; append copies the value.
		cell := CellSpec{Experiment: ExpStream, Variant: row, Mount: row, Opts: o}
		if row == RowBentoNoBypass {
			cell.Mount, cell.Opts.noBypass = VariantBento, true
		}
		for _, cfg := range reads {
			cell.Run = func(tg filebench.Target) (filebench.Result, error) {
				return filebench.StreamRead(tg, cfg)
			}
			specs = append(specs, cell)
		}
		cell.Run = func(tg filebench.Target) (filebench.Result, error) {
			tg.M.SetDirtyLimit(512)
			return filebench.StreamWrite(tg, filebench.StreamConfig{Threads: 1, FileSize: fileSize})
		}
		specs = append(specs, cell)
	}
	return &plan{rows: rows, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table(fmt.Sprintf("Streaming scenario (%d MiB cold sequential pass), MBps", fileSize>>20),
			cols, rows, func(r, c int) string {
				return fmt.Sprintf("%.0f", data[rows[r]][c].MBps())
			})
	}}
}

// netstorePreset is one latency point of the netstore experiment.
type netstorePreset struct {
	name string
	lat  time.Duration // request first-byte latency
	bw   int           // streaming bandwidth, MB/s
}

// netstorePresets pins the experiment's two latency points. They are
// deliberately independent of the -netlat/-netbw flags (those steer
// ad-hoc runs of the other experiments under -backend=netstore): the
// published cells must mean the same thing in every baseline.
var netstorePresets = []netstorePreset{
	{name: "lan", lat: 500 * time.Microsecond, bw: 320},
	{name: "wan", lat: 20 * time.Millisecond, bw: 80},
}

// options forces the netstore backend at the preset's latency point; the
// caller's -backend/-netlat/-netbw choices don't reach the published
// cells.
func (p netstorePreset) options(o Options) Options {
	o.Backend = BackendNetstore
	o.Model = o.Model.WithNet(p.lat, p.bw)
	return o
}

// netWorkloads are the three workloads the netstore and netfaults
// scenarios run on the object-store backend — the Fig2 4KB sequential
// read cell, the cold streaming read, and varmail: the three where the
// paper's mechanisms (cache hits, read-ahead, fsync discipline) meet
// network storage most differently. tolerateIO and pre are the fault
// scenario's additions (goodput accounting, arming a blackout once setup
// is done); the netstore scenario passes false and nil.
var netWorkloads = []func(tg filebench.Target, o Options, tolerateIO bool, pre func(startNS int64)) (filebench.Result, error){
	func(tg filebench.Target, o Options, tolerateIO bool, pre func(int64)) (filebench.Result, error) {
		return filebench.ReadMicro(tg, filebench.MicroConfig{
			Threads: 1, IOSize: 4096, FileSize: workingSet(o, 1),
			Duration: o.Duration, MaxOps: o.MaxOps, Seed: 1,
			TolerateIO: tolerateIO, PreMeasure: pre,
		})
	},
	func(tg filebench.Target, o Options, tolerateIO bool, pre func(int64)) (filebench.Result, error) {
		return filebench.StreamRead(tg, filebench.StreamConfig{
			Threads: 1, FileSize: streamFileSize(o),
			TolerateIO: tolerateIO, PreMeasure: pre,
		})
	},
	func(tg filebench.Target, o Options, tolerateIO bool, pre func(int64)) (filebench.Result, error) {
		return filebench.Varmail(tg, filebench.MacroConfig{
			Threads: 16, Files: o.MacroFiles, Duration: o.Duration, MaxOps: o.MaxOps, Seed: 3,
			TolerateIO: tolerateIO, PreMeasure: pre,
		})
	},
}

// netCell formats column c of the netstore/netfaults tables, whose
// columns cycle through netWorkloads: kop/s, MB/s, op/s.
func netCell(res filebench.Result, c int) string {
	switch c % len(netWorkloads) {
	case 0:
		return fmt.Sprintf("%.1f", res.OpsPerSec()/1000)
	case 1:
		return fmt.Sprintf("%.1f", res.MBps())
	default:
		return fmt.Sprintf("%.0f", res.OpsPerSec())
	}
}

// netCols names the netstore/netfaults table columns for one preset or
// condition.
func netCols(name string) []string {
	return []string{name + "-read4k (kop/s)", name + "-stream (MB/s)", name + "-varmail (op/s)"}
}

// netstorePlan builds the multi-backend scenario: netWorkloads for each
// variant at each latency preset. Cell names carry the preset prefix
// ("lan-read-seq-1t-4k") so the two latency points stay distinct
// benchdiff keys.
func netstorePlan(o Options) *plan {
	vars := AllVariants
	var cols []string
	for _, p := range netstorePresets {
		cols = append(cols, netCols(p.name)...)
	}
	var specs []CellSpec
	for _, v := range vars {
		for _, p := range netstorePresets {
			no := p.options(o)
			for _, wl := range netWorkloads {
				specs = append(specs, CellSpec{Experiment: ExpNetstore, Variant: v, Mount: v, Opts: no,
					Run: func(tg filebench.Target) (filebench.Result, error) {
						r, err := wl(tg, no, false, nil)
						r.Name = p.name + "-" + r.Name
						return r, err
					}})
			}
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		return Table("Netstore scenario: object-store backend at two latency points", cols, vars,
			func(r, c int) string { return netCell(data[vars[r]][c], c) })
	}}
}
