package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/memfs"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// hookFS wraps memfs with a modeled per-page device cost, an optional
// per-page read fault, and a record of batched write-back calls — the
// instrumentation the background-I/O integration tests need.
type hookFS struct {
	kernel.FileSystem
	pageCost time.Duration

	failPage int64         // page whose reads fail (-1: none)
	failCost time.Duration // extra time a failing read takes
	batches  []iodaemon.Run
	probe    func(t *kernel.Task, pg int64) // if set, runs inside every page read
}

func (h *hookFS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	if h.probe != nil {
		h.probe(t, pg)
	}
	// Model a device read: the task waits for the transfer, and a failed
	// one is known only when it completes.
	t.Clk.Advance(h.pageCost)
	if h.failPage == pg {
		t.Clk.Advance(h.failCost)
		return fsapi.ErrIO
	}
	return h.FileSystem.ReadPage(t, ino, pg, buf)
}

// WritePages implements kernel.BatchWriter by recording the run and
// delegating page by page.
func (h *hookFS) WritePages(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	h.batches = append(h.batches, iodaemon.Run{Start: pg, Count: len(pages)})
	for i, buf := range pages {
		if err := h.FileSystem.WritePage(t, ino, pg+int64(i), buf, newSize); err != nil {
			return err
		}
	}
	return nil
}

func (h *hookFS) setFailPage(pg int64) {
	h.failPage = pg
}

func (h *hookFS) recordedBatches() []iodaemon.Run {
	return append([]iodaemon.Run(nil), h.batches...)
}

// lendFS is hookFS as a kernel.PageLender: it lends each page as a fresh
// buffer it fills through hookFS.ReadPage.
type lendFS struct{ *hookFS }

func (l lendFS) LendPage(t *kernel.Task, ino fsapi.Ino, pg int64) ([]byte, error) {
	view := make([]byte, fsapi.PageSize)
	if err := l.ReadPage(t, ino, pg, view); err != nil {
		return nil, err
	}
	return view, nil
}

type hookType struct {
	fs   **hookFS
	lend bool // mount the hookFS as a lendFS
}

func (hookType) Name() string { return "hookfs" }

func (ht hookType) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	inner, err := memfs.Type{}.Mount(t, dev)
	if err != nil {
		return nil, err
	}
	h := &hookFS{FileSystem: inner, pageCost: 50 * time.Microsecond, failPage: -1}
	*ht.fs = h
	if ht.lend {
		return lendFS{h}, nil
	}
	return h, nil
}

// newIODMount builds a kernel + hookFS mount with the background I/O
// subsystem enabled and a trace recorder attached (see counter).
func newIODMount(t *testing.T) (*kernel.Mount, *hookFS, *kernel.Task) {
	return newHookMount(t, false)
}

// newHookMount is newIODMount, with the hookFS mounted as a lendFS when
// lend is set.
func newHookMount(t *testing.T, lend bool) (*kernel.Mount, *hookFS, *kernel.Task) {
	t.Helper()
	k := kernel.New(costmodel.Fast())
	k.SetRecorder(trace.New())
	var h *hookFS
	if err := k.Register(hookType{fs: &h, lend: lend}); err != nil {
		t.Fatal(err)
	}
	task := k.NewTask("test")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Fast()})
	m, err := k.Mount(task, "hookfs", "/mnt", dev)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableIODaemon(iodaemon.Config{})
	return m, h, task
}

// counter reads the named trace counter of the kernel task runs in.
func counter(task *kernel.Task, name string) int64 {
	return task.Kernel().Recorder().Counters()[name]
}

// spans reads the recorded spans named name.
func spans(task *kernel.Task, name string) []trace.Event {
	var out []trace.Event
	for _, e := range task.Kernel().Recorder().Events() {
		if e.Kind == trace.KindSpan && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// writeFilePages writes n distinct pages to path and syncs them out.
func writeFilePages(t *testing.T, m *kernel.Mount, task *kernel.Task, path string, n int) {
	t.Helper()
	f, err := m.Open(task, path, fsapi.OCreate|fsapi.ORdwr|fsapi.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	for i := 0; i < n; i++ {
		pattern := bytes.Repeat([]byte{byte('a' + i%26)}, fsapi.PageSize)
		if _, err := f.PWrite(task, pattern, int64(i)*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FSync(task); err != nil {
		t.Fatal(err)
	}
}

// TestReadAheadOverlapsDeviceTime streams a cold file sequentially and
// checks that (a) the bytes are right, (b) the daemon filled pages ahead
// of demand, and (c) the pass cost far less virtual time than the same
// stream with the daemon disabled: the fills overlap the reader instead
// of serializing with it.
func TestReadAheadOverlapsDeviceTime(t *testing.T) {
	const pages = 64

	stream := func(withDaemon bool) (elapsed time.Duration, fillPages int64) {
		k := kernel.New(costmodel.Fast())
		k.SetRecorder(trace.New())
		var h *hookFS
		if err := k.Register(hookType{fs: &h}); err != nil {
			t.Fatal(err)
		}
		task := k.NewTask("test")
		dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Fast()})
		m, err := k.Mount(task, "hookfs", "/mnt", dev)
		if err != nil {
			t.Fatal(err)
		}
		if withDaemon {
			m.EnableIODaemon(iodaemon.Config{})
		}
		writeFilePages(t, m, task, "/f", pages)
		m.DropCaches()

		rd := k.NewTask("reader")
		f, err := m.Open(rd, "/f", fsapi.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close(rd, f)
		buf := make([]byte, 4*fsapi.PageSize)
		start := rd.Clk.Now()
		var off int64
		for off < pages*fsapi.PageSize {
			n, err := f.PRead(rd, buf, off)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := byte('a' + int((off+int64(i))/fsapi.PageSize)%26)
				if buf[i] != want {
					t.Fatalf("byte %d = %q, want %q", off+int64(i), buf[i], want)
				}
			}
			off += int64(n)
		}
		return rd.Clk.Now() - start, counter(rd, "ra_fill_pages")
	}

	withRA, fillPages := stream(true)
	without, _ := stream(false)
	if fillPages == 0 {
		t.Fatal("read-ahead filled no pages on a cold sequential stream")
	}
	if withRA*2 >= without {
		t.Fatalf("read-ahead pass = %v, no-read-ahead pass = %v; want at least 2x overlap win", withRA, without)
	}
}

// TestReadAheadErrorPropagation points read-ahead at a page whose device
// read fails: the demand read that triggered the fill must succeed, the
// poisoned page must not be cached (a page enters the cache only once its
// fill succeeds), and the demand read of the bad page must surface the
// error synchronously. Once the fault clears, the same read succeeds.
// Only read-ahead reads page 8 during the walk: the walk's single-page
// demand reads never reach it.
func TestReadAheadErrorPropagation(t *testing.T) {
	m, h, task := newIODMount(t)
	const pages = 16
	writeFilePages(t, m, task, "/f", pages)
	m.DropCaches()
	h.setFailPage(8)

	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)

	buf := make([]byte, fsapi.PageSize)
	reached := false
	h.probe = func(_ *kernel.Task, pg int64) { reached = reached || pg == 8 }
	// Walk sequentially up to (but not including) the bad page: the
	// demand reads themselves must not fail even though read-ahead runs
	// into page 8.
	for pg := int64(0); pg < 8; pg++ {
		if _, err := f.PRead(task, buf, pg*fsapi.PageSize); err != nil {
			t.Fatalf("demand read of page %d: %v (read-ahead error leaked)", pg, err)
		}
	}
	h.probe = nil
	if !reached {
		t.Fatal("read-ahead never reached the bad page")
	}
	// The bad page was dropped, not cached: reading it hits the device
	// error synchronously.
	if _, err := f.PRead(task, buf, 8*fsapi.PageSize); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("read of the bad page = %v, want ErrIO", err)
	}
	// Fault cleared: the page reads fine (nothing poisoned survived).
	h.setFailPage(-1)
	if _, err := f.PRead(task, buf, 8*fsapi.PageSize); err != nil {
		t.Fatalf("read after clearing the fault: %v", err)
	}
	if buf[0] != byte('a'+8%26) {
		t.Fatalf("page 8 contents = %q, want %q", buf[0], byte('a'+8%26))
	}
}

// TestReadAheadFillBeforeInsert: a page enters the page cache only once
// its contents exist. Whether the file system copies the page (ReadPage)
// or lends it (LendPage), the page is not resident while the fill runs —
// for the demand read and for every read-ahead fill it triggers — and it
// is resident, with its contents, once the fill has returned.
func TestReadAheadFillBeforeInsert(t *testing.T) {
	for _, lend := range []bool{false, true} {
		m, h, task := newHookMount(t, lend)
		const pages = 16
		writeFilePages(t, m, task, "/f", pages)
		m.DropCaches()
		st, err := m.Stat(task, "/f")
		if err != nil {
			t.Fatal(err)
		}
		f, err := m.Open(task, "/f", fsapi.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		var filled []int64
		h.probe = func(_ *kernel.Task, pg int64) {
			filled = append(filled, pg)
			if m.PageResident(st.Ino, pg) {
				t.Errorf("lend=%v: page %d is in the cache while its fill runs", lend, pg)
			}
		}
		buf := make([]byte, fsapi.PageSize)
		if _, err := f.PRead(task, buf, 0); err != nil {
			t.Fatal(err)
		}
		h.probe = nil
		ra := counter(task, "ra_fill_pages")
		if ra == 0 || int64(len(filled)) != 1+ra {
			t.Fatalf("lend=%v: %d fills ran, %d of them read-ahead; want the demand fill plus at least one read-ahead fill", lend, len(filled), ra)
		}
		for _, pg := range filled {
			if !m.PageResident(st.Ino, pg) {
				t.Fatalf("lend=%v: page %d not resident after its fill", lend, pg)
			}
			if _, err := f.PRead(task, buf, pg*fsapi.PageSize); err != nil || buf[0] != byte('a'+pg%26) {
				t.Fatalf("lend=%v: page %d reads %q (%v)", lend, pg, buf[0], err)
			}
		}
		if err := m.Close(task, f); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlusherCoalescesDirtyRuns dirties two separated extents, lets the
// background flusher drain them, and checks every ->writepages call
// covered one maximal contiguous run.
func TestFlusherCoalescesDirtyRuns(t *testing.T) {
	m, h, task := newIODMount(t)
	m.SetDirtyLimit(16) // background threshold = 8

	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	one := bytes.Repeat([]byte{'x'}, fsapi.PageSize)
	// Pages 20..24 first (stays under the background threshold)...
	for pg := int64(20); pg < 25; pg++ {
		if _, err := f.PWrite(task, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(task, "flush_wakeups"); got != 0 {
		t.Fatalf("flusher woke %d times below the background threshold", got)
	}
	// ...then 0..9 in one call, crossing it (15 dirty > 8): one wakeup
	// drains both extents as exactly two batched calls.
	ten := bytes.Repeat([]byte{'y'}, 10*fsapi.PageSize)
	if _, err := f.PWrite(task, ten, 0); err != nil {
		t.Fatal(err)
	}
	if counter(task, "flush_wakeups") == 0 {
		t.Fatal("flusher never woke above the background threshold")
	}
	if runs, pages := counter(task, "flush_runs"), counter(task, "flush_pages"); runs != 2 || pages != 15 {
		t.Fatalf("flusher wrote %d runs / %d pages, want 2 runs / 15 pages", runs, pages)
	}
	want := []iodaemon.Run{{Start: 0, Count: 10}, {Start: 20, Count: 5}}
	got := h.recordedBatches()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("writepages batches = %v, want %v", got, want)
	}
}

// TestQuiesceOnUnmount checks the unmount path. Unmount drains the
// remaining dirty pages through one final flusher pass, and the stopped
// mount then books no background work: a file opened through the stale
// *Mount that writes past the background threshold wakes no flusher, and
// a sequential read through a cold file submits no fill batch.
func TestQuiesceOnUnmount(t *testing.T) {
	m, _, task := newIODMount(t)
	writeFilePages(t, m, task, "/r", 16)
	m.DropCaches()

	// Dirty a few pages without fsync: only unmount writes them back.
	w, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	one := bytes.Repeat([]byte{'q'}, fsapi.PageSize)
	for pg := int64(0); pg < 4; pg++ {
		if _, err := w.PWrite(task, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(task, w); err != nil {
		t.Fatal(err)
	}

	if err := task.Kernel().Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	quiesced := func() {
		t.Helper()
		if runs, pages := counter(task, "flush_runs"), counter(task, "flush_pages"); runs != 1 || pages != 4 {
			t.Fatalf("quiesce flushed %d runs / %d pages, want 1 run / 4 pages", runs, pages)
		}
		if n := len(spans(task, "flush-pass")); n != 1 {
			t.Fatalf("%d flush-pass spans, want the quiesce's one", n)
		}
	}
	quiesced()
	wakeups, batches := counter(task, "flush_wakeups"), counter(task, "ra_batches")
	if w, err = m.Open(task, "/f", fsapi.ORdwr); err != nil {
		t.Fatal(err)
	}
	r, err := m.Open(task, "/r", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}

	// Past the background threshold (half the dirty limit), below the
	// hard limit: a running flusher would wake.
	m.SetDirtyLimit(16)
	for pg := int64(4); pg < 13; pg++ { // 9 dirty > 8
		if _, err := w.PWrite(task, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	// A sequential stream through the cold file: a running mount would
	// fill its misses and the window ahead of it in batches.
	buf := make([]byte, 2*fsapi.PageSize)
	for off := int64(0); off < 16*fsapi.PageSize; off += int64(len(buf)) {
		if _, err := r.PRead(task, buf, off); err != nil {
			t.Fatal(err)
		}
		if want := byte('a' + off/fsapi.PageSize%26); buf[0] != want {
			t.Fatalf("offset %d reads %q, want %q", off, buf[0], want)
		}
	}
	if got := counter(task, "flush_wakeups"); got != wakeups {
		t.Fatalf("stopped mount woke its flusher: %d wakeups, was %d", got, wakeups)
	}
	if got := counter(task, "ra_batches"); got != batches {
		t.Fatalf("stopped mount submitted fill batches: %d, was %d", got, batches)
	}
	quiesced()
}

// TestFlushRecordsAndQuiesce follows the flusher's passes through a
// mount's life. A background wakeup books one pass: its wakeup, a
// flush-pass span that starts no earlier than the dirtier that woke it
// and carries the pass's runs and pages, and the matching counters; the
// dirtier does not wait for it. Unmount's quiesce is the second and last
// pass: afterwards the mount books none, however far a file opened
// through the stale *Mount dirties past the background threshold.
func TestFlushRecordsAndQuiesce(t *testing.T) {
	m, _, task := newIODMount(t)
	m.SetDirtyLimit(16) // background threshold = 8
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	one := bytes.Repeat([]byte{'p'}, fsapi.PageSize)
	dirty := func(pgs ...int64) {
		t.Helper()
		for _, pg := range pgs {
			if _, err := f.PWrite(task, one, pg*fsapi.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two extents, 4 + 4 pages: at the threshold, not past it.
	dirty(0, 1, 2, 3, 10, 11, 12, 13)
	if n := counter(task, "flush_wakeups"); n != 0 {
		t.Fatalf("flusher woke %d times at the background threshold", n)
	}
	woke := task.Clk.NowNS()
	dirty(14) // 9 dirty > 8: one wakeup drains both extents
	passes := spans(task, "flush-pass")
	if len(passes) != 1 {
		t.Fatalf("%d flush-pass spans after one wakeup, want 1", len(passes))
	}
	p := passes[0]
	if p.Start < woke || p.Dur <= 0 {
		t.Fatalf("flush pass spans [%d, +%d), want a pass of nonzero length starting at or after the wakeup at %d",
			p.Start, p.Dur, woke)
	}
	if p.A != 2 || p.B != 9 {
		t.Fatalf("flush-pass span records %d runs / %d pages, want 2 runs / 9 pages", p.A, p.B)
	}
	if w, runs, pages := counter(task, "flush_wakeups"), counter(task, "flush_runs"), counter(task, "flush_pages"); w != 1 || runs != 2 || pages != 9 {
		t.Fatalf("counters: %d wakeups, %d runs, %d pages; want 1, 2, 9", w, runs, pages)
	}
	if n := counter(task, "throttles"); n != 0 {
		t.Fatalf("dirtier below the hard limit was throttled %d times", n)
	}
	if now := task.Clk.NowNS(); now >= p.Start+p.Dur {
		t.Fatalf("dirtier at %d waited for the pass ending at %d", now, p.Start+p.Dur)
	}

	// One page left dirty: unmount's quiesce is the second pass.
	dirty(20)
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}
	if err := task.Kernel().Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	final := func() {
		t.Helper()
		if n := len(spans(task, "flush-pass")); n != 2 {
			t.Fatalf("%d flush-pass spans, want 2 (one wakeup + one quiesce)", n)
		}
		if w, runs, pages := counter(task, "flush_wakeups"), counter(task, "flush_runs"), counter(task, "flush_pages"); w != 2 || runs != 3 || pages != 10 {
			t.Fatalf("counters: %d wakeups, %d runs, %d pages; want 2, 3, 10", w, runs, pages)
		}
	}
	final()
	if f, err = m.Open(task, "/f", fsapi.ORdwr); err != nil {
		t.Fatal(err)
	}
	dirty(21, 22, 23, 24, 25, 26, 27, 28, 29) // 9 dirty > 8 on the stopped mount
	final()
}

// TestBackgroundThreshold: the flusher wakes once the mount holds more
// than half its dirty limit, not before.
func TestBackgroundThreshold(t *testing.T) {
	m, _, task := newIODMount(t)
	m.SetDirtyLimit(16) // background threshold = 8
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)
	one := bytes.Repeat([]byte{'t'}, fsapi.PageSize)
	for pg := int64(0); pg < 9; pg++ {
		if _, err := f.PWrite(task, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if pg == 8 {
			want = 1 // 9 dirty > 8
		}
		if got := counter(task, "flush_wakeups"); got != want {
			t.Fatalf("after %d dirty pages the flusher woke %d times, want %d", pg+1, got, want)
		}
	}
	if got := counter(task, "flush_pages"); got != 9 {
		t.Fatalf("the wakeup flushed %d pages, want 9", got)
	}
}

// TestFillBatchStopsOnError: a fill batch stops at its failed fill, so
// the pages after it are never read and are not resident. The batch
// reports the failed fill's clock, and the demand reader that submitted
// it waits until then (an ra-wait span ending there) before it retries
// the page itself. The failing read is the batch's slowest, so waiting
// for the pages filled before it is not enough.
func TestFillBatchStopsOnError(t *testing.T) {
	const pages, bad = 8, 2
	m, h, task := newIODMount(t)
	writeFilePages(t, m, task, "/f", pages)
	m.DropCaches()
	h.setFailPage(bad)
	h.failCost = 100 * time.Microsecond

	rd := task.Kernel().NewTaskWithClock("reader", vclock.NewClockAt(task.Clk.Now()))
	f, err := m.Open(rd, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(rd, f)
	type read struct {
		task string
		pg   int64
		at   int64 // the reading task's clock as the read began
	}
	var reads []read
	h.probe = func(ft *kernel.Task, pg int64) { reads = append(reads, read{ft.Name, pg, ft.Clk.NowNS()}) }
	if _, err := f.PRead(rd, make([]byte, pages*fsapi.PageSize), 0); !errors.Is(err, fsapi.ErrIO) {
		t.Fatalf("PRead over a failing page = %v, want ErrIO", err)
	}

	// Pages 0..bad on the fill task, then the reader's own retry of bad.
	if len(reads) != bad+2 || reads[bad] != (read{"kworker-fill:/mnt", bad, reads[bad].at}) ||
		reads[bad+1] != (read{"reader", bad, reads[bad+1].at}) {
		t.Fatalf("page reads = %+v, want pages 0..%d on the fill task and the reader's retry of %d", reads, bad, bad)
	}
	for pg := int64(0); pg < pages; pg++ {
		if got, want := m.PageResident(f.Ino(), pg), pg < bad; got != want {
			t.Fatalf("page %d resident = %v, want %v", pg, got, want)
		}
	}
	failedAt := reads[bad].at + int64(h.pageCost+h.failCost) // the failure is known when the read completes
	if retry := reads[bad+1].at; retry < failedAt {
		t.Fatalf("reader retried page %d at %d, before the failed fill completed at %d", bad, retry, failedAt)
	}
	if waits := spans(rd, "ra-wait"); len(waits) != 1 || waits[0].Start+waits[0].Dur != failedAt {
		t.Fatalf("reader's ra-wait spans = %+v, want one ending at the failed fill's clock %d", waits, failedAt)
	}
}

// TestFillBatchCountsWithoutEvents: the page reads of a fill batch count
// their direct reads and buffer-cache probes into the kernel's recorder,
// as a reader's would, while the fill task's track records no event — its
// clock is rebased to each fill, so its spans would overlap.
func TestFillBatchCountsWithoutEvents(t *testing.T) {
	const pages = 8
	m, h, task := newIODMount(t)
	writeFilePages(t, m, task, "/f", pages)
	m.DropCaches()
	bc := kernel.NewBufferCache(m.Device(), task.Model(), 0)
	const meta = 15 // a block no page reads directly
	tracks := map[string]int{}
	h.probe = func(ft *kernel.Task, pg int64) {
		tracks[ft.Name]++
		if err := bc.ReadDirect(ft, int(pg), make([]byte, fsapi.PageSize)); err != nil {
			t.Fatal(err)
		}
		b, err := bc.Get(ft, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	before := task.Kernel().Recorder().Counters()
	if _, err := m.ReadFile(task, "/f"); err != nil {
		t.Fatal(err)
	}
	const fillTrack = "kworker-fill:/mnt"
	if want := map[string]int{fillTrack: pages}; !maps.Equal(tracks, want) {
		t.Fatalf("page reads by task = %v, want all %d on the fill task", tracks, pages)
	}
	c := task.Kernel().Recorder().Counters()
	for name, want := range map[string]int64{
		"ra_fill_pages": pages,
		"direct_reads":  pages,
		"buf_misses":    1,
		"buf_hits":      pages - 1,
	} {
		if got := c[name] - before[name]; got != want {
			t.Errorf("%s rose by %d, want %d", name, got, want)
		}
	}
	for _, e := range task.Kernel().Recorder().Events() {
		if e.Track == fillTrack {
			t.Fatalf("the fill task recorded %+v", e)
		}
	}
}

// TestIODaemonConcurrentTraffic shares one daemon-enabled mount between
// four sequential readers and four writers under a vclock.Group — the
// shape of a multi-thread benchmark cell — and checks the background
// machinery (window updates, fills, flusher passes, throttling) both did
// its work next to the syscall paths and replays exactly.
func TestIODaemonConcurrentTraffic(t *testing.T) {
	const pages = 32
	run := func() (map[string]int64, time.Duration) {
		m, _, task := newIODMount(t)
		m.SetDirtyLimit(32)
		for w := 0; w < 4; w++ {
			writeFilePages(t, m, task, fmt.Sprintf("/f%d", w), pages)
		}
		m.DropCaches()

		g := vclock.NewGroup(task.Clk.Now())
		g.Run(8, func(i int, sw *vclock.Worker) {
			w := i / 2
			if i%2 == 0 { // sequential reader: drives read-ahead
				tk := task.Kernel().NewTaskWithClock(fmt.Sprintf("rd%d", w), sw.Clock())
				f, err := m.Open(tk, fmt.Sprintf("/f%d", w), fsapi.ORdonly)
				if err != nil {
					t.Error(err)
					return
				}
				defer m.Close(tk, f)
				buf := make([]byte, 2*fsapi.PageSize)
				for off := int64(0); off < pages*fsapi.PageSize; off += int64(len(buf)) {
					sw.Yield()
					if _, err := f.PRead(tk, buf, off); err != nil {
						t.Error(err)
						return
					}
				}
				return
			}
			// writer: drives the flusher
			tk := task.Kernel().NewTaskWithClock(fmt.Sprintf("wr%d", w), sw.Clock())
			f, err := m.Open(tk, fmt.Sprintf("/w%d", w), fsapi.OCreate|fsapi.ORdwr)
			if err != nil {
				t.Error(err)
				return
			}
			defer m.Close(tk, f)
			one := bytes.Repeat([]byte{byte(w)}, fsapi.PageSize)
			for pg := int64(0); pg < pages; pg++ {
				sw.Yield()
				if _, err := f.PWrite(tk, one, pg*fsapi.PageSize); err != nil {
					t.Error(err)
					return
				}
			}
			sw.Yield()
			if err := f.FSync(tk); err != nil {
				t.Error(err)
			}
		})
		return task.Kernel().Recorder().Counters(), g.Elapsed()
	}
	ctrs, elapsed := run()
	if ctrs["ra_fill_pages"] == 0 || ctrs["flush_wakeups"] == 0 || ctrs["flush_pages"] == 0 {
		t.Fatalf("daemon idle under mixed traffic: %v", ctrs)
	}
	if ctrs2, e2 := run(); !maps.Equal(ctrs2, ctrs) || e2 != elapsed {
		t.Fatalf("replay differs: %v/%v vs %v/%v", ctrs2, e2, ctrs, elapsed)
	}
}

// TestOverwriteClearsReadAheadWait: a full-page overwrite of a page that
// read-ahead filled discards the pending fill's contents, so a later
// reader of the overwritten page owes no virtual-time wait for the
// asynchronous device read's completion — its cost must match an
// ordinary warm cache hit, not a fill wait.
func TestOverwriteClearsReadAheadWait(t *testing.T) {
	m, h, task := newIODMount(t)
	const pages = 16
	writeFilePages(t, m, task, "/f", pages)
	m.DropCaches()

	// A sequential demand read of pages 0-1 opens the initial window:
	// pages 2-5 are filled asynchronously with readyAt in the virtual
	// future (the reader's clock has already paid two demand fills, so
	// those completions lie well ahead of a fresh task's clock).
	rd := task.Kernel().NewTask("streamer")
	f, err := m.Open(rd, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*fsapi.PageSize)
	if _, err := f.PRead(rd, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(rd, f); err != nil {
		t.Fatal(err)
	}

	// Full-page overwrite of read-ahead-filled page 3 on a fresh clock.
	wr := task.Kernel().NewTask("overwriter")
	fw, err := m.Open(wr, "/f", fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.PWrite(wr, bytes.Repeat([]byte{'Z'}, fsapi.PageSize), 3*fsapi.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(wr, fw); err != nil {
		t.Fatal(err)
	}

	// Control: reading a demand-filled warm page (0) on a fresh task is
	// a pure cache hit. Reading the overwritten page (3) must cost the
	// same — before the fix it additionally jumped to the discarded
	// fill's readyAt.
	readOne := func(name string, pg int64) time.Duration {
		tk := task.Kernel().NewTask(name)
		fr, err := m.Open(tk, "/f", fsapi.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close(tk, fr)
		one := make([]byte, fsapi.PageSize)
		before := tk.Clk.Now()
		if _, err := fr.PRead(tk, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
		if pg == 3 && one[0] != 'Z' {
			t.Fatalf("page 3 starts with %q, want overwritten 'Z'", one[0])
		}
		return tk.Clk.Now() - before
	}
	control := readOne("control", 0)
	subject := readOne("subject", 3)
	if subject != control {
		t.Fatalf("reading overwritten page cost %v, warm hit costs %v: stale readyAt wait leaked", subject, control)
	}
	if subject >= h.pageCost {
		t.Fatalf("overwritten-page read (%v) cost a device fill (%v); want pure cache hit", subject, h.pageCost)
	}
}
