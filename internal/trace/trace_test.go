package trace

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// Every method must be a safe no-op on nil.
	r.Add(CtrSyscalls, 1)
	r.Span("w0", CatSyscall, "read", 0, 10)
	r.SpanAB("w0", CatJournal, "commit", 0, 10, 3, 0)
	r.Instant("ra", CatDaemon, "readahead", 5, 0, 4)
	r.Sample("dev", "qdepth", 7, 2)
	if got := r.Counters(); got != nil {
		t.Fatalf("nil recorder Counters() = %v, want nil", got)
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder Events() = %v, want nil", got)
	}
}

func TestCountersSnapshot(t *testing.T) {
	r := New()
	r.Add(CtrSyscalls, 3)
	r.Add(CtrPageHits, 2)
	r.Add(CtrPageHits, 5)
	got := r.Counters()
	want := map[string]int64{"syscalls": 3, "page_hits": 7}
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Counters()[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestCountOnlySharesCountersAndDropsEvents(t *testing.T) {
	var off *Recorder
	if off.CountOnly() != nil {
		t.Fatal("the view of a nil recorder is not nil")
	}
	r := New()
	v := r.CountOnly()
	r.Add(CtrBufHits, 1)
	v.Add(CtrBufHits, 2)
	v.Add(CtrDirectReads, 3)
	v.Span("fill", CatDevice, "direct-read", 0, 10)
	v.Instant("fill", CatDaemon, "readahead", 5, 0, 4)
	want := map[string]int64{"buf_hits": 3, "direct_reads": 3}
	for _, got := range []map[string]int64{r.Counters(), v.Counters()} {
		if !maps.Equal(got, want) {
			t.Fatalf("Counters() = %v, want %v", got, want)
		}
	}
	if n := len(r.Events()) + len(v.Events()); n != 0 {
		t.Fatalf("the view recorded %d events, want 0", n)
	}
}

func TestEventsSortedByStartThenTrack(t *testing.T) {
	r := New()
	r.Span("b", CatSyscall, "late", 100, 200)
	r.Span("a", CatSyscall, "early", 50, 80)
	r.Span("a", CatSyscall, "tie-second", 100, 110) // appended after "late" but same start, track "a" < "b"
	evs := r.Events()
	order := make([]string, len(evs))
	for i, e := range evs {
		order[i] = e.Name
	}
	want := []string{"early", "tie-second", "late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
}

func TestSpanClampsInvertedInterval(t *testing.T) {
	r := New()
	r.Span("w", CatSyscall, "x", 100, 90)
	if d := r.Events()[0].Dur; d != 0 {
		t.Fatalf("inverted span dur = %d, want 0", d)
	}
}

func TestChromeTraceIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New()
		r.Span("cell-w0", CatWorker, "run", 0, 1000)
		r.SpanAB("cell-w0", CatSyscall, "pread", 100, 900, 4096, 0)
		r.Span("cell-w0", CatDevice, "read", 200, 400)
		r.Instant("readahead", CatDaemon, "readahead", 150, 8, 4)
		r.Sample("nvme0", "qdepth", 210, 3)
		return r
	}
	meta := Meta{Experiment: "fig2", Variant: "Bento", Cell: "read-seq-1t-4k"}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a, meta); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical recordings serialized differently")
	}

	var parsed struct {
		OtherData   map[string]string `json:"otherData"`
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, a.String())
	}
	if parsed.OtherData["cell"] != "read-seq-1t-4k" || parsed.OtherData["variant"] != "Bento" {
		t.Fatalf("otherData = %v", parsed.OtherData)
	}
	// 3 tracks -> 3 thread_name metadata events, plus the 5 recorded.
	if len(parsed.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8:\n%s", len(parsed.TraceEvents), a.String())
	}
	phases := map[string]int{}
	for _, e := range parsed.TraceEvents {
		phases[e.Ph]++
	}
	if phases["M"] != 3 || phases["X"] != 3 || phases["i"] != 1 || phases["C"] != 1 {
		t.Fatalf("phase histogram = %v", phases)
	}
	// ts is microseconds: the 200ns device span must serialize as 0.200.
	if !strings.Contains(a.String(), "\"ts\":0.200,\"dur\":0.200") {
		t.Fatalf("expected ns-precision microsecond timestamps:\n%s", a.String())
	}
}

func TestUsec(t *testing.T) {
	cases := map[int64]string{
		0:             "0.000",
		1:             "0.001",
		999:           "0.999",
		1000:          "1.000",
		1234567:       "1234.567",
		1000000000000: "1000000000.000",
	}
	for ns, want := range cases {
		if got := usec(ns); got != want {
			t.Errorf("usec(%d) = %q, want %q", ns, got, want)
		}
	}
}
