// Package trace is the per-cell, virtual-time event recorder behind
// `bentobench -metrics` and `bentobench -trace`.
//
// A Recorder collects two kinds of telemetry from one benchmark cell:
// counters (cache hits, journal commits, FUSE round-trips — exported as
// the record's `metrics` map) and events (spans, instants, and samples
// on the virtual timeline — exported as one Chrome/Perfetto trace-event
// JSON file per cell).
//
// Two contracts make it safe to leave the instrumentation threaded
// through the hot paths permanently:
//
//   - Nil-safe and free when disabled. Every method is a no-op on a nil
//     *Recorder, callers hold plain pointer fields, and no call site
//     allocates to decide whether to record (no closures, no variadic
//     argument slices, no interface boxing). The repo's allocation
//     budget (ALLOC_budget.json) is measured with the recorder disabled
//     and does not move.
//
//   - Deterministic when enabled. Virtual time is a pure function of
//     the cost model (see internal/vclock), and within a cell the
//     scheduler admits one worker at a time, so events are appended in
//     a reproducible order; emission additionally sorts by (virtual
//     time, track) so the serialized trace is byte-identical across
//     runs, hosts, and host-parallelism levels. A traced run is gated
//     by the same determinism CI job as the benchmark JSON.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
)

// Event categories. The tracestat breakdown buckets exclusive span time
// by category, so every span carries one of these.
const (
	// CatSyscall covers VFS entry to exit: the syscall crossing, path
	// walk, and everything not claimed by a nested span.
	CatSyscall = "syscall"
	// CatCache is time stalled on cache-miss handling: synchronous page
	// fills and waits for in-flight read-ahead (ra-wait).
	CatCache = "cache"
	// CatJournal is journal begin-stalls and commits (xv6 log, ext4
	// jbd2 analogue).
	CatJournal = "journal"
	// CatDevice is time waiting on block-device completions and FLUSH
	// barriers.
	CatDevice = "device"
	// CatDaemon is background-I/O machinery: flusher passes, writer
	// throttling, read-ahead batch submission.
	CatDaemon = "daemon"
	// CatFuse is the userspace-crossing tax: FUSE request round-trips
	// and the single-threaded daemon gate.
	CatFuse = "fuse"
	// CatWorker is a benchmark worker's whole measured run; its
	// exclusive time is the application's own think time (the harness's
	// AppOpOverhead plus anything no other span claims).
	CatWorker = "worker"
	// CatUpgrade is the §4.8 online-upgrade protocol: the quiesce /
	// transfer / resume phases on the operator's track, and the stall an
	// operation arriving mid-upgrade pays waiting for resume.
	CatUpgrade = "upgrade"
	// CatNet is object-store traffic behind the netstore backend: GET /
	// PUT request service on the per-connection lanes and the flush
	// barrier.
	CatNet = "net"
)

// Counter indexes one cell-wide counter. Counters are exported under
// stable snake_case names (see counterNames) in the record's `metrics`
// map.
type Counter int

// The counter set. Append-only: removing or renaming an entry breaks
// metric continuity across baselines.
const (
	CtrSyscalls Counter = iota
	CtrPageHits
	CtrPageMisses
	CtrBufHits
	CtrBufMisses
	CtrDirectReads
	CtrDirectWrites
	CtrJournalCommits
	CtrJournalBlocks
	CtrJournalAbsorbed
	CtrJournalStalls
	CtrRABatches
	CtrRAFillPages
	CtrRAFillSkips
	CtrFlushWakeups
	CtrFlushRuns
	CtrFlushPages
	CtrThrottles
	CtrFuseRequests
	CtrFuseBytesIn
	CtrFuseBytesOut
	CtrDevReads
	CtrDevWrites
	CtrDevFlushes
	CtrUpgrades
	CtrUpgradeStalls
	CtrNetGets
	CtrNetPuts
	CtrNetFlushes
	CtrNetCacheHits
	CtrNetCacheMisses
	CtrNetEvictPuts
	CtrNetRetries
	CtrNetHedges
	CtrNetTimeouts
	CtrNetDegraded
	numCounters
)

var counterNames = [numCounters]string{
	CtrSyscalls:        "syscalls",
	CtrPageHits:        "page_hits",
	CtrPageMisses:      "page_misses",
	CtrBufHits:         "buf_hits",
	CtrBufMisses:       "buf_misses",
	CtrDirectReads:     "direct_reads",
	CtrDirectWrites:    "direct_writes",
	CtrJournalCommits:  "journal_commits",
	CtrJournalBlocks:   "journal_blocks",
	CtrJournalAbsorbed: "journal_absorbed",
	CtrJournalStalls:   "journal_stalls",
	CtrRABatches:       "ra_batches",
	CtrRAFillPages:     "ra_fill_pages",
	CtrRAFillSkips:     "ra_fill_skips",
	CtrFlushWakeups:    "flush_wakeups",
	CtrFlushRuns:       "flush_runs",
	CtrFlushPages:      "flush_pages",
	CtrThrottles:       "throttles",
	CtrFuseRequests:    "fuse_requests",
	CtrFuseBytesIn:     "fuse_bytes_in",
	CtrFuseBytesOut:    "fuse_bytes_out",
	CtrDevReads:        "dev_reads",
	CtrDevWrites:       "dev_writes",
	CtrDevFlushes:      "dev_flushes",
	CtrUpgrades:        "upgrades",
	CtrUpgradeStalls:   "upgrade_stalls",
	CtrNetGets:         "net_gets",
	CtrNetPuts:         "net_puts",
	CtrNetFlushes:      "net_flushes",
	CtrNetCacheHits:    "net_cache_hits",
	CtrNetCacheMisses:  "net_cache_misses",
	CtrNetEvictPuts:    "net_evict_puts",
	CtrNetRetries:      "net_retries",
	CtrNetHedges:       "net_hedges",
	CtrNetTimeouts:     "net_timeouts",
	CtrNetDegraded:     "net_degraded",
}

// Kind distinguishes the three event shapes.
type Kind uint8

// Event kinds.
const (
	// KindSpan is a closed interval of virtual time on one track
	// (Chrome ph "X"). Spans on one track are properly nested — task
	// clocks never run backwards — so analyzers may compute exclusive
	// time with a stack sweep.
	KindSpan Kind = iota
	// KindInstant is a point event (Chrome ph "i"): a read-ahead batch
	// submission, for example. Instants carry no duration and do not
	// participate in time breakdowns.
	KindInstant
	// KindSample is a sampled counter value (Chrome ph "C"), e.g. device
	// queue occupancy.
	KindSample
)

// Event is one recorded trace event. Start is absolute virtual
// nanoseconds; Dur is the span length (0 for instants; unused for
// samples). A and B are event-specific integer arguments (block counts,
// page ranges, sample values).
type Event struct {
	Kind  Kind
	Track string // task name: one Perfetto thread row per track
	Cat   string
	Name  string
	Start int64
	Dur   int64
	A, B  int64
}

// Recorder accumulates one cell's events and counters. The zero of
// *Recorder — nil — is the disabled state: every method no-ops. Create
// an enabled one with New. A recorder belongs to one cell and is written
// by whichever of the cell's tasks the scheduler has admitted, so it
// holds no lock.
type Recorder struct {
	events []Event

	counters [numCounters]int64
}

// New returns an enabled recorder with event capacity pre-grown so
// steady-state recording stays off the allocator.
func New() *Recorder {
	return &Recorder{events: make([]Event, 0, 4096)}
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Add increments a counter.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c] += n
}

// Span records [start, end) on track. Inverted intervals are clamped
// to zero duration rather than rejected, so callers need no guards
// around zeroed cost models.
func (r *Recorder) Span(track, cat, name string, start, end int64) {
	r.record(Event{Kind: KindSpan, Track: track, Cat: cat, Name: name, Start: start, Dur: max64(0, end-start)})
}

// SpanAB records a span with two integer arguments.
func (r *Recorder) SpanAB(track, cat, name string, start, end, a, b int64) {
	r.record(Event{Kind: KindSpan, Track: track, Cat: cat, Name: name, Start: start, Dur: max64(0, end-start), A: a, B: b})
}

// Instant records a point event with two integer arguments.
func (r *Recorder) Instant(track, cat, name string, at, a, b int64) {
	r.record(Event{Kind: KindInstant, Track: track, Cat: cat, Name: name, Start: at, A: a, B: b})
}

// Sample records a counter sample (value v at virtual time at).
func (r *Recorder) Sample(track, name string, at, v int64) {
	r.record(Event{Kind: KindSample, Track: track, Name: name, Start: at, A: v})
}

func (r *Recorder) record(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Counters snapshots the nonzero counters under their stable exported
// names. A nil recorder returns nil, which serializes as an absent
// `metrics` field.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c]; v != 0 {
			out[counterNames[c]] = v
		}
	}
	return out
}

// Events returns a sorted snapshot: ascending (virtual start time,
// track), append order within ties. The snapshot is the serialization
// order of the trace file.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	evs := append([]Event(nil), r.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Track < evs[j].Track
	})
	return evs
}

// Meta labels a trace file with the cell it came from; tracestat groups
// breakdown rows by it.
type Meta struct {
	Experiment string
	Variant    string
	Cell       string
}

// WriteChromeTrace serializes the events as Chrome/Perfetto trace-event
// JSON ("JSON Object Format"). Timestamps are virtual microseconds with
// nanosecond precision, formatted with integer math so the bytes are a
// pure function of the recorded int64s. Tracks become threads of pid 1,
// with tids assigned by sorted track name and labeled via thread_name
// metadata.
func (r *Recorder) WriteChromeTrace(w io.Writer, meta Meta) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"cell\":%q,\"experiment\":%q,\"variant\":%q},\"traceEvents\":[",
		meta.Cell, meta.Experiment, meta.Variant)

	evs := r.Events()
	tracks := make([]string, 0, 8)
	seen := make(map[string]bool, 8)
	for _, e := range evs {
		if !seen[e.Track] {
			seen[e.Track] = true
			tracks = append(tracks, e.Track)
		}
	}
	sort.Strings(tracks)
	tid := make(map[string]int, len(tracks))
	first := true
	for i, tr := range tracks {
		tid[tr] = i
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}", i, tr)
	}
	for _, e := range evs {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		switch e.Kind {
		case KindSpan:
			fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"a\":%d,\"b\":%d}}",
				e.Name, e.Cat, tid[e.Track], usec(e.Start), usec(e.Dur), e.A, e.B)
		case KindInstant:
			fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"a\":%d,\"b\":%d}}",
				e.Name, e.Cat, tid[e.Track], usec(e.Start), e.A, e.B)
		case KindSample:
			fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"C\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"value\":%d}}",
				e.Name, tid[e.Track], usec(e.Start), e.A)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteFile writes the Chrome trace to path (0644, truncating).
func (r *Recorder) WriteFile(path string, meta Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WriteChromeTrace(f, meta)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// usec renders ns as decimal microseconds with exactly three fractional
// digits, using integer math only.
func usec(ns int64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
