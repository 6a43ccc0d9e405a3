package iodaemon

// Window is the per-file read-ahead state machine, modeled on Linux's
// ondemand_readahead: it detects sequential streams, ramps an ahead
// window up exponentially while the stream continues, and collapses it
// on the first seek. The zero value expects a stream starting at page 0
// (the common cold sequential scan), exactly as a fresh struct
// file_ra_state does.
//
// A Window belongs to one file; like the rest of a cell's state it is
// plain memory (one task runs at a time).
type Window struct {
	next  int64 // page a sequential successor access would start at
	size  int64 // current ahead window in pages; 0 = no stream detected
	ahead int64 // first page past everything already requested ahead
}

// Access records a demand read covering pages [first, last] and reports
// the page range [start, start+count) to fill ahead of the stream,
// given the policy's initial and maximum window sizes. count is 0 when
// the access is not part of a sequential stream (or the window adds
// nothing beyond what is already ahead).
//
// The window ramps like Linux's: a newly detected stream gets
// max(init, 2×request) pages, each sequential continuation doubles it,
// and max caps it. A request larger than the window would otherwise
// outrun read-ahead entirely, which is why the request size feeds the
// ramp.
func (w *Window) Access(first, last int64, init, max int64) (start, count int64) {
	req := last - first + 1
	if req < 1 {
		req = 1
	}
	// Sequential means the request starts at the page the stream is due
	// to hit next — or, for sub-page I/O, still inside the page the
	// previous request ended in (a 1 KiB reader advances within page 0
	// three times before touching page 1; that is not a seek).
	seq := first == w.next || (w.size > 0 && first == w.next-1 && last >= w.next-1)
	if seq {
		// Sequential continuation (or a fresh stream at the expected
		// origin): grow the window.
		w.size = clamp(2*w.size, 2*req, init, max)
	} else {
		// Seek: the stream is broken; forget it. The next access from
		// here looks sequential again, so a new stream re-ramps from
		// the initial window.
		w.size = 0
		w.ahead = 0
	}
	w.next = last + 1

	if w.size == 0 {
		return 0, 0
	}
	start = last + 1
	if w.ahead > start {
		start = w.ahead
	}
	end := last + 1 + w.size
	if end <= start {
		return 0, 0
	}
	w.ahead = end
	return start, end - start
}

// Reset collapses the window, e.g. after a failed asynchronous fill:
// streaming ahead into a region that errors would retry the same broken
// read every access.
func (w *Window) Reset() {
	w.size = 0
	w.ahead = 0
}

// Size reports the current ahead window in pages (0 when no stream is
// detected); for tests and stats.
func (w *Window) Size() int64 { return w.size }

// clamp bounds max(a, b) to [lo, hi].
func clamp(a, b, lo, hi int64) int64 {
	return min(max(a, b, lo), hi)
}

// Run is one maximal range of consecutive page (or block) indexes.
type Run struct {
	Start int64 // first index in the run
	Count int   // number of consecutive indexes
}

// Runs coalesces an ascending index list into maximal contiguous runs —
// the write-back batching step: each run of dirty pages becomes a
// single ->writepages call.
func Runs(keys []int64) []Run {
	if len(keys) == 0 {
		return nil
	}
	return AppendRuns(make([]Run, 0, 4), keys)
}

// AppendRuns appends the maximal contiguous runs of the ascending index
// list to dst and returns the extended slice — Runs for callers that
// recycle a scratch buffer across write-back passes.
func AppendRuns(dst []Run, keys []int64) []Run {
	if len(keys) == 0 {
		return dst
	}
	cur := Run{Start: keys[0], Count: 1}
	for _, k := range keys[1:] {
		if k == cur.Start+int64(cur.Count) {
			cur.Count++
			continue
		}
		dst = append(dst, cur)
		cur = Run{Start: k, Count: 1}
	}
	return append(dst, cur)
}
