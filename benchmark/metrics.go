package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"bento/internal/netstore"
	"bento/internal/trace"
)

// metricDef declares one reported metric. BENCHMARK.json is generated
// from these (-manifest) and a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share of the parent's median
	e2e                bool
	// exact marks a metric that is a pure function of (seed, code): a
	// simulated time or a recorder count. -check requires such metrics to
	// repeat bit for bit between runs at one seed.
	exact bool
}

// shareCats are the exclusive virtual-time categories; "app" is the
// trace's worker category, the client's own time between system calls.
var shareCats = []string{"syscall", "cache", "journal", "device", "net", "daemon", "fuse", "app"}

func metricDefs() []metricDef {
	var defs []metricDef
	add := func(e2e, exact bool, better string, bound float64, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better, bound: bound, e2e: e2e, exact: exact})
		}
	}
	perVariant := func(prefix string) []string {
		out := make([]string, len(variantKeys))
		for i, v := range variantKeys {
			out[i] = prefix + "." + v
		}
		return out
	}

	add(true, false, "lower", 0.25, "s", "setup_s")
	add(true, false, "lower", 0.25, "ns/op", "host_ns_per_op")
	add(true, true, "higher", 0.05, "ops/sim_s", perVariant("sim_ops_per_s")...)
	add(true, true, "lower", 0.05, "sim_us", perVariant("sim_p99_us")...)

	layer := func(exact bool, better, unit string, names ...string) { add(false, exact, better, 0, unit, names...) }
	layer(false, "lower", "ns/op", perVariant("kernel.self_ns_per_op")...)
	layer(false, "lower", "ns/op", perVariant("fs.self_ns_per_op")...)
	layer(true, "lower", "calls/op", perVariant("fs.calls_per_op")...)
	layer(false, "lower", "ns/op", "fuse.transport_self_ns_per_op")
	layer(true, "lower", "req/op", "fuse.requests_per_op")
	layer(true, "lower", "B/op", "fuse.wire_bytes_per_op")
	layer(false, "lower", "ns/op", perVariant("backend.self_ns_per_op")...)
	layer(true, "lower", "calls/op", perVariant("backend.calls_per_op")...)
	layer(false, "lower", "ns/call", "backend.ns_per_call.read", "backend.ns_per_call.submit", "backend.ns_per_call.flush")
	layer(false, "lower", "ns/op", "vclock.yield_ns_per_op", "driver.self_ns_per_op")
	layer(false, "lower", "ns/op", "phase.write_out.host_ns_per_op", "phase.read_back.host_ns_per_op")
	layer(true, "higher", "MB/sim_s", perVariant("phase.write_out.sim_mb_per_s")...)
	layer(true, "higher", "MB/sim_s", perVariant("phase.read_back.sim_mb_per_s")...)
	layer(false, "lower", "ns/op", perVariant("host.ns_per_op")...)
	layer(false, "lower", "ns/op", "host.ns_per_op_rep_min", "host.ns_per_op_rep_median")
	layer(false, "lower", "ratio", "host.ns_per_op_iqr_ratio")
	layer(false, "lower", "allocs/op", "host.allocs_per_op")
	layer(false, "lower", "B/op", "host.alloc_bytes_per_op")
	layer(false, "lower", "count", "host.gc_cycles")
	layer(false, "lower", "MB", "host.heap_inuse_mb_peak")
	layer(false, "lower", "s", perVariant("harness.newtarget_s")...)
	layer(false, "lower", "s", "harness.populate_s", "harness.dropcaches_s")
	layer(false, "lower", "ratio", "trace.overhead_ratio")
	layer(true, "lower", "events/op", "trace.events_per_op")
	for _, cat := range shareCats {
		layer(true, "lower", "share", perVariant("sim.share."+cat)...)
	}
	layer(true, "lower", "sim_us", perVariant("sim.p50_us")...)
	layer(true, "higher", "ratio", "kernel.page_hit_ratio", "kernel.buf_hit_ratio")
	layer(true, "higher", "pages", "iodaemon.ra_pages_per_batch", "iodaemon.flush_pages_per_run")
	layer(true, "lower", "1/kop", perVariant("fs.journal_commits_per_kop")...)
	layer(true, "higher", "blocks", perVariant("fs.journal_blocks_per_commit")...)
	layer(true, "lower", "1/kop", perVariant("blockdev.dev_writes_per_kop")...)
	layer(true, "lower", "1/kop", perVariant("blockdev.dev_flushes_per_kop")...)
	layer(true, "higher", "ratio", "netstore.cache_hit_ratio")
	layer(true, "lower", "1/kop", "netstore.gets_per_kop")
	layer(true, "lower", "1/kop", perVariant("netstore.puts_per_kop")...)
	layer(true, "lower", "B/B", perVariant("netstore.wire_bytes_per_user_byte")...)
	return defs
}

// simSummary is everything a cell measured on the virtual clock. It is a
// pure function of the op list and the cost model, so every repetition —
// traced or not — must produce the same one.
type simSummary struct {
	digest     uint64 // over every phase boundary and every op latency
	ops        int
	virtualNS  int64
	p50, p99   int64
	phaseNS    map[string]int64 // virtual ns per phase name
	phaseBytes map[string]int64
}

func summarize(st *cellStat) simSummary {
	s := simSummary{phaseNS: map[string]int64{}, phaseBytes: map[string]int64{}}
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, p := range st.phases {
		put(p.startNS)
		put(p.endNS)
		put(p.bytes)
		s.ops += p.ops
		s.virtualNS += p.endNS - p.startNS
		s.phaseNS[p.name] += p.endNS - p.startNS
		s.phaseBytes[p.name] += p.bytes
	}
	for _, l := range st.lat {
		put(l)
	}
	s.digest = h.Sum64()
	// Exact order statistics, taken after the clock has stopped.
	sorted := slices.Clone(st.lat)
	slices.Sort(sorted)
	s.p50 = quantile(sorted, 50)
	s.p99 = quantile(sorted, 99)
	return s
}

// quantile returns the smallest sample with at least pct% of the sorted
// samples at or below it.
func quantile(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)*pct+99)/100-1]
}

// exclusiveTime buckets the recorder's spans by category with a stack
// sweep per track (the algorithm of cmd/tracestat): spans on a track nest,
// so exclusive(span) = duration - sum of direct children, and the buckets
// sum to the total of the top-level spans.
func exclusiveTime(evs []trace.Event) (excl map[string]int64, total int64, err error) {
	excl = map[string]int64{}
	byTrack := map[string][]trace.Event{}
	for _, e := range evs {
		if e.Kind == trace.KindSpan {
			byTrack[e.Track] = append(byTrack[e.Track], e)
		}
	}
	type frame struct {
		e     trace.Event
		child int64
	}
	for track, spans := range byTrack {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].Dur > spans[j].Dur
		})
		var stack []frame
		pop := func() error {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.child > f.e.Dur {
				return fmt.Errorf("trace: children of %q overrun it on track %s", f.e.Name, track)
			}
			excl[f.e.Cat] += f.e.Dur - f.child
			return nil
		}
		for _, e := range spans {
			for len(stack) > 0 && stack[len(stack)-1].e.Start+stack[len(stack)-1].e.Dur <= e.Start {
				if err := pop(); err != nil {
					return nil, 0, err
				}
			}
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				if e.Start+e.Dur > top.e.Start+top.e.Dur {
					return nil, 0, fmt.Errorf("trace: %q straddles the end of %q on track %s", e.Name, top.e.Name, track)
				}
				top.child += e.Dur
			} else {
				total += e.Dur
			}
			stack = append(stack, frame{e: e})
		}
		for len(stack) > 0 {
			if err := pop(); err != nil {
				return nil, 0, err
			}
		}
	}
	return excl, total, nil
}

func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrRatio is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(v, n=4) — the spread the acceptance check uses.
func iqrRatio(v []float64) float64 {
	n := len(v)
	m := median(v)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (q(3) - q(1)) / m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// result is one benchmark run of one workload.
type result struct {
	w        *workload
	untraced [][]*cellStat // [rep][variant]
	traced   [][]*cellStat
	tracers  [][]*tracer
}

func sumOver(cells []*cellStat, f func(*cellStat) float64) (s float64) {
	for _, c := range cells {
		s += f(c)
	}
	return s
}

// perRep applies f to every repetition's cells.
func perRep(reps [][]*cellStat, f func([]*cellStat) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func timedNS(c *cellStat) float64 { return float64(c.timedNS()) }
func opsOf(c *cellStat) float64   { return float64(c.sim.ops) }
func setupS(c *cellStat) float64  { return float64(c.totalNS-c.timedNS()) / 1e9 }

func hostPerOp(cells []*cellStat) float64 {
	return ratio(sumOver(cells, timedNS), sumOver(cells, opsOf))
}

// steadyNS is the host time of variant vi's timed sections (of the phases
// named phase, or of all when phase is ""). Each slice holds the same ops
// in every repetition, so it is summarized across repetitions on its own
// and the slices are summed: a burst of interference then costs one
// repetition of one slice, not a whole repetition. The summary is the
// minimum — interference from the rest of the machine only ever adds
// time, so the minimum over repetitions of identical work tracks the
// undisturbed cost. On the 2-core build host it moved by 2-3% between
// runs where the median of whole repetitions moved by 8-12%.
func steadyNS(reps [][]*cellStat, vi int, phase string) (ns, ops float64) {
	for pi, p := range reps[0][vi].phases {
		if phase != "" && p.name != phase {
			continue
		}
		ops += float64(p.ops)
		for si := range p.sliceNS {
			best := p.sliceNS[si]
			for _, cells := range reps[1:] {
				best = min(best, cells[vi].phases[pi].sliceNS[si])
			}
			ns += float64(best)
		}
	}
	return ns, ops
}

// steadyPerOp is steadyNS over all variants, per op.
func steadyPerOp(reps [][]*cellStat, phase string) float64 {
	var ns, ops float64
	for vi := range variantKeys {
		n, o := steadyNS(reps, vi, phase)
		ns, ops = ns+n, ops+o
	}
	return ratio(ns, ops)
}

// endToEnd computes the gated metrics from the untraced repetitions.
func (r *result) endToEnd() map[string]float64 {
	m := map[string]float64{}
	for vi, v := range variantKeys {
		m["setup_s"] += slices.Min(perRep(r.untraced, func(cells []*cellStat) float64 { return setupS(cells[vi]) }))
		s := r.untraced[0][vi].sim
		m["sim_ops_per_s."+v] = ratio(float64(s.ops), float64(s.virtualNS)/1e9)
		m["sim_p99_us."+v] = float64(s.p99) / 1e3
	}
	m["host_ns_per_op"] = steadyPerOp(r.untraced, "")
	return m
}

// perLayer computes the diagnostic metrics; it needs at least one traced
// repetition.
func (r *result) perLayer() map[string]float64 {
	m := map[string]float64{}
	for _, d := range metricDefs() {
		if !d.e2e {
			m[d.name] = 0
		}
	}
	nv := len(variantKeys)

	// Host clock, untraced.
	steady := steadyPerOp(r.untraced, "")
	rep := perRep(r.untraced, hostPerOp)
	m["host.ns_per_op_rep_min"] = slices.Min(rep)
	m["host.ns_per_op_rep_median"] = median(rep)
	m["host.ns_per_op_iqr_ratio"] = iqrRatio(rep)
	repOps := func(cells []*cellStat) float64 { return sumOver(cells, opsOf) }
	m["host.allocs_per_op"] = median(perRep(r.untraced, func(cells []*cellStat) float64 {
		return sumOver(cells, func(c *cellStat) float64 { return float64(c.allocs) }) / repOps(cells)
	}))
	m["host.alloc_bytes_per_op"] = median(perRep(r.untraced, func(cells []*cellStat) float64 {
		return sumOver(cells, func(c *cellStat) float64 { return float64(c.allocBytes) }) / repOps(cells)
	}))
	m["host.gc_cycles"] = median(perRep(r.untraced, func(cells []*cellStat) float64 {
		return sumOver(cells, func(c *cellStat) float64 { return float64(c.gcCycles) })
	}))
	m["host.heap_inuse_mb_peak"] = slices.Max(perRep(r.untraced, func(cells []*cellStat) float64 {
		var peak uint64
		for _, c := range cells {
			peak = max(peak, c.heapInusePeak)
		}
		return float64(peak) / (1 << 20)
	}))
	m["harness.populate_s"] = median(perRep(r.untraced, func(cells []*cellStat) float64 {
		return sumOver(cells, func(c *cellStat) float64 { return float64(c.populateNS) / 1e9 })
	}))
	m["harness.dropcaches_s"] = median(perRep(r.untraced, func(cells []*cellStat) float64 {
		return sumOver(cells, func(c *cellStat) float64 { return float64(c.dropNS) / 1e9 })
	}))
	for _, ph := range []string{"write_out", "read_back"} {
		m["phase."+ph+".host_ns_per_op"] = steadyPerOp(r.untraced, ph)
	}
	for vi, v := range variantKeys {
		one := func(f func(*cellStat) float64) []float64 {
			return perRep(r.untraced, func(cells []*cellStat) float64 { return f(cells[vi]) })
		}
		m["host.ns_per_op."+v] = ratio(steadyNS(r.untraced, vi, ""))
		m["harness.newtarget_s."+v] = median(one(func(c *cellStat) float64 { return float64(c.newTargetNS) / 1e9 }))
		s := r.untraced[0][vi].sim
		m["sim.p50_us."+v] = float64(s.p50) / 1e3
		for _, ph := range []string{"write_out", "read_back"} {
			m["phase."+ph+".sim_mb_per_s."+v] = ratio(float64(s.phaseBytes[ph])/1e6, float64(s.phaseNS[ph])/1e9)
		}
	}

	// Host clock, traced: seam self times, summed over the traced
	// repetitions and divided by their ops.
	var allOps, yield, s1, tracedNS float64
	var beNS, beCalls [numBackendCalls]float64
	self := make([][numLayers]float64, nv)
	for ri, cells := range r.traced {
		for vi, c := range cells {
			tr := r.tracers[ri][vi]
			allOps += opsOf(c)
			yield += float64(tr.yieldNS)
			s1 += float64(tr.totalNS)
			tracedNS += timedNS(c)
			for l, ns := range tr.selfNS {
				self[vi][l] += float64(ns)
			}
			for i := range beNS {
				beNS[i] += float64(tr.backendNS[i])
				beCalls[i] += float64(tr.backendCalls[i])
			}
		}
	}
	for i, name := range []string{"read", "submit", "flush"} {
		m["backend.ns_per_call."+name] = ratio(beNS[i], beCalls[i])
	}
	m["vclock.yield_ns_per_op"] = yield / allOps
	m["driver.self_ns_per_op"] = (tracedNS - s1 - yield) / allOps
	m["trace.overhead_ratio"] = ratio(tracedNS/allOps, steady)

	// Counts are the same in every traced repetition; the first one's are
	// reported, so the figures do not depend on how many repetitions fit.
	all := map[string]float64{}
	var firstOps, events float64
	for vi, v := range variantKeys {
		c, tr := r.traced[0][vi], r.tracers[0][vi]
		ops := opsOf(c)
		firstOps += ops
		events += float64(c.nEvents)
		tracedOps := ops * float64(len(r.traced))
		m["kernel.self_ns_per_op."+v] = self[vi][layerKernel] / tracedOps
		m["fs.self_ns_per_op."+v] = self[vi][layerFS] / tracedOps
		m["backend.self_ns_per_op."+v] = self[vi][layerBackend] / tracedOps
		m["fs.calls_per_op."+v] = float64(tr.calls[layerFS]) / ops
		m["backend.calls_per_op."+v] = float64(tr.calls[layerBackend]) / ops
		ctr := func(name string) float64 { return float64(c.counters[name]) }
		for name, n := range c.counters {
			all[name] += float64(n)
		}
		m["fs.journal_commits_per_kop."+v] = ctr("journal_commits") / ops * 1e3
		m["fs.journal_blocks_per_commit."+v] = ratio(ctr("journal_blocks"), ctr("journal_commits"))
		m["blockdev.dev_writes_per_kop."+v] = ctr("dev_writes") / ops * 1e3
		m["blockdev.dev_flushes_per_kop."+v] = ctr("dev_flushes") / ops * 1e3
		m["netstore.puts_per_kop."+v] = ctr("net_puts") / ops * 1e3
		var userBytes float64
		for _, b := range c.sim.phaseBytes {
			userBytes += float64(b)
		}
		m["netstore.wire_bytes_per_user_byte."+v] = ratio((ctr("net_gets")+ctr("net_puts"))*netObjectBytes, userBytes)
		for _, cat := range shareCats {
			key := cat
			if cat == "app" {
				key = trace.CatWorker
			}
			m["sim.share."+cat+"."+v] = ratio(float64(c.excl[key]), float64(c.exclTotal))
		}
		if v == "fuse" {
			m["fuse.transport_self_ns_per_op"] = self[vi][layerFuse] / tracedOps
			m["fuse.requests_per_op"] = ctr("fuse_requests") / ops
			m["fuse.wire_bytes_per_op"] = (ctr("fuse_bytes_in") + ctr("fuse_bytes_out")) / ops
		}
	}
	m["trace.events_per_op"] = events / firstOps
	m["kernel.page_hit_ratio"] = ratio(all["page_hits"], all["page_hits"]+all["page_misses"])
	m["kernel.buf_hit_ratio"] = ratio(all["buf_hits"], all["buf_hits"]+all["buf_misses"])
	m["iodaemon.ra_pages_per_batch"] = ratio(all["ra_fill_pages"], all["ra_batches"])
	m["iodaemon.flush_pages_per_run"] = ratio(all["flush_pages"], all["flush_runs"])
	m["netstore.cache_hit_ratio"] = ratio(all["net_cache_hits"], all["net_cache_hits"]+all["net_cache_misses"])
	m["netstore.gets_per_kop"] = all["net_gets"] / firstOps * 1e3
	return m
}

// netObjectBytes is the object size of the benchmark's netstore targets;
// every GET and PUT moves one whole object.
const netObjectBytes = netstore.DefaultObjectBlocks * 4096

// check verifies what must hold inside one run: the virtual clock repeats
// across repetitions, the hand-built traced targets behave exactly like
// harness.NewTarget's, and the seam self times account for the S1 total.
func (r *result) check() error {
	for vi, v := range variantKeys {
		want := r.untraced[0][vi].sim.digest
		for ri, cells := range r.untraced {
			if got := cells[vi].sim.digest; got != want {
				return fmt.Errorf("%s/%s: repetition %d simulated differently from repetition 0 (digest %x != %x)", r.w.name, v, ri, got, want)
			}
		}
		for ri, cells := range r.traced {
			if got := cells[vi].sim.digest; got != want {
				return fmt.Errorf("%s/%s: traced repetition %d simulated differently from the untraced run (digest %x != %x)", r.w.name, v, ri, got, want)
			}
			tr := r.tracers[ri][vi]
			var self int64
			for _, ns := range tr.selfNS {
				self += ns
			}
			if d := self - tr.totalNS; d > tr.totalNS/100 || -d > tr.totalNS/100 {
				return fmt.Errorf("%s/%s: seam self times sum to %d ns, S1 total is %d ns", r.w.name, v, self, tr.totalNS)
			}
		}
	}
	return nil
}
