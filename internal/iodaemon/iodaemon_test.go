package iodaemon

import (
	"errors"
	"testing"
	"time"

	"bento/internal/costmodel"
	"bento/internal/vclock"
)

// fakeTask is a minimal Task: charges advance the clock directly (no
// CPU pool).
type fakeTask struct {
	clk   *vclock.Clock
	model *costmodel.Model
}

func newFakeTask(at int64) *fakeTask {
	return &fakeTask{clk: vclock.NewClockAt(time.Duration(at)), model: costmodel.Fast()}
}

func (f *fakeTask) Charge(d time.Duration)  { f.clk.Advance(d) }
func (f *fakeTask) Clock() *vclock.Clock    { return f.clk }
func (f *fakeTask) Model() *costmodel.Model { return f.model }

func newTestDaemon(cfg Config) *Daemon[*fakeTask] {
	return New(cfg, newFakeTask(0), newFakeTask(0), func(at int64) *fakeTask { return newFakeTask(at) })
}

func TestWindowRampsAndCaps(t *testing.T) {
	var w Window
	const init, max = 4, 32
	type step struct {
		first, last          int64
		wantStart, wantCount int64
		wantSize             int64
	}
	steps := []step{
		// A stream from page 0 is detected immediately (fresh state).
		{0, 0, 1, 4, 4},
		// Sequential continuations double the window; fills start where
		// the previous window ended.
		{1, 1, 5, 5, 8},    // window 8, ahead was 5, ends at 2+8=10
		{2, 2, 10, 9, 16},  // window 16, ends at 3+16=19
		{3, 3, 19, 17, 32}, // window capped at 32, ends at 4+32=36
		{4, 4, 36, 1, 32},  // already 31 ahead; tops up to 5+32=37
	}
	for i, s := range steps {
		start, count := w.Access(s.first, s.last, init, max)
		if start != s.wantStart || count != s.wantCount || w.Size() != s.wantSize {
			t.Fatalf("step %d: Access(%d,%d) = (%d,%d) size %d; want (%d,%d) size %d",
				i, s.first, s.last, start, count, w.Size(), s.wantStart, s.wantCount, s.wantSize)
		}
	}
}

func TestWindowResetsOnSeek(t *testing.T) {
	var w Window
	const init, max = 4, 32
	w.Access(0, 0, init, max)
	w.Access(1, 1, init, max)
	if w.Size() != 8 {
		t.Fatalf("window after two sequential accesses = %d, want 8", w.Size())
	}
	// Seek far away: the stream is broken, nothing is scheduled.
	if _, count := w.Access(100, 100, init, max); count != 0 {
		t.Fatalf("seek scheduled %d pages, want 0", count)
	}
	if w.Size() != 0 {
		t.Fatalf("window after seek = %d, want 0", w.Size())
	}
	// The stream restarting at the new position re-ramps from init.
	start, count := w.Access(101, 101, init, max)
	if start != 102 || count != init || w.Size() != init {
		t.Fatalf("post-seek Access = (%d,%d) size %d, want (102,%d) size %d",
			start, count, w.Size(), init, init)
	}
}

func TestWindowSubPageSequentialKeepsStream(t *testing.T) {
	var w Window
	const init, max = 4, 32
	// A 1 KiB reader touches page 0 four times before reaching page 1;
	// the intra-page re-reads must not be classified as seeks.
	w.Access(0, 0, init, max)
	for i := 0; i < 3; i++ {
		w.Access(0, 0, init, max)
		if w.Size() == 0 {
			t.Fatalf("intra-page re-read %d collapsed the window", i)
		}
	}
	if _, count := w.Access(1, 1, init, max); w.Size() == 0 || count < 0 {
		t.Fatalf("stream lost at the page boundary: size %d", w.Size())
	}
	if w.Size() != max {
		t.Fatalf("window = %d after a sustained sub-page stream, want %d", w.Size(), max)
	}
}

func TestWindowScalesToRequestSize(t *testing.T) {
	var w Window
	const init, max = 4, 32
	// A 16-page request must not get a 4-page window, or read-ahead
	// could never run ahead of the reader.
	if _, count := w.Access(0, 15, init, max); count != 32 {
		t.Fatalf("16-page request scheduled %d pages ahead, want 32", count)
	}
}

func TestRunsCoalesces(t *testing.T) {
	cases := []struct {
		keys []int64
		want []Run
	}{
		{nil, nil},
		{[]int64{5}, []Run{{5, 1}}},
		{[]int64{0, 1, 2, 3}, []Run{{0, 4}}},
		{[]int64{0, 1, 2, 9, 20, 21}, []Run{{0, 3}, {9, 1}, {20, 2}}},
	}
	for _, c := range cases {
		got := Runs(c.keys)
		if len(got) != len(c.want) {
			t.Fatalf("Runs(%v) = %v, want %v", c.keys, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Runs(%v) = %v, want %v", c.keys, got, c.want)
			}
		}
	}
}

func TestFillAheadBatchesConcurrently(t *testing.T) {
	d := newTestDaemon(Config{})
	const now = int64(1000)
	const devRead = int64(50_000)
	var readyAts []int64
	err := d.FillAhead(now, 10, 4, func(ft *fakeTask, pg int64) (bool, error) {
		if got := ft.Clock().NowNS(); got < now || got > now+1000 {
			t.Fatalf("fill task for page %d started at %d, want ~%d (batch submission time)", pg, got, now)
		}
		ft.Clock().AdvanceNS(devRead) // the simulated device read
		readyAts = append(readyAts, ft.Clock().NowNS())
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every fill ran from the submission time, not serially after its
	// predecessor: each completion is ~now+devRead, and the worker's
	// clock tracks the frontier.
	for i, r := range readyAts {
		if r > now+devRead+1000 {
			t.Fatalf("fill %d completed at %d; serial issue would explain %d, batch must not", i, r, r)
		}
	}
	if got := d.Stats().FillPages; got != 4 {
		t.Fatalf("FillPages = %d, want 4", got)
	}
	if fr := d.ra.Clock().NowNS(); fr < now+devRead {
		t.Fatalf("worker frontier = %d, want >= %d", fr, now+devRead)
	}
}

func TestFillAheadStopsOnError(t *testing.T) {
	d := newTestDaemon(Config{})
	boom := errors.New("boom")
	var calls int
	err := d.FillAhead(0, 0, 8, func(ft *fakeTask, pg int64) (bool, error) {
		calls++
		if pg == 2 {
			return false, boom
		}
		return true, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 3 {
		t.Fatalf("fill ran %d times, want 3 (abort after the failure)", calls)
	}
	st := d.Stats()
	if st.FillErrors != 1 || st.FillPages != 2 {
		t.Fatalf("stats = %+v, want 1 error, 2 pages", st)
	}
}

func TestFlushRecordsAndQuiesce(t *testing.T) {
	d := newTestDaemon(Config{})
	var passes int
	flush := func(ft *fakeTask) (int, int, error) {
		passes++
		ft.Clock().AdvanceNS(10_000) // the pass's device time
		return 2, 15, nil
	}
	done, err := d.Flush(5000, flush)
	if err != nil {
		t.Fatal(err)
	}
	if done < 15_000 {
		t.Fatalf("flush completion = %d, want >= 15000 (wakeup at 5000 + 10000 of work)", done)
	}
	if st := d.Stats(); st.Wakeups != 1 || st.FlushRuns != 2 || st.FlushPages != 15 {
		t.Fatalf("stats = %+v, want 1 wakeup, 2 runs, 15 pages", st)
	}

	// Quiesce runs one final pass, then the daemon refuses work.
	if _, err := d.Quiesce(flush); err != nil {
		t.Fatal(err)
	}
	if !d.Stopped() {
		t.Fatal("daemon not stopped after quiesce")
	}
	if passes != 2 {
		t.Fatalf("flush passes = %d, want 2 (one kick + one quiesce)", passes)
	}
	if _, err := d.Flush(0, flush); err != nil {
		t.Fatal(err)
	}
	if err := d.FillAhead(0, 0, 4, func(ft *fakeTask, pg int64) (bool, error) {
		t.Fatal("fill ran after quiesce")
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Quiesce(flush); err != nil { // idempotent
		t.Fatal(err)
	}
	if passes != 2 {
		t.Fatalf("stopped daemon still flushing: %d passes", passes)
	}
}

func TestBackgroundThreshold(t *testing.T) {
	d := newTestDaemon(Config{BackgroundRatio: 4})
	if got := d.BackgroundThreshold(2048); got != 512 {
		t.Fatalf("threshold = %d, want 512", got)
	}
}
