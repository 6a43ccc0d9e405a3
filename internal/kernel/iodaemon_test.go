package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/kernel"
	"bento/internal/memfs"
	"bento/internal/vclock"
)

// hookFS wraps memfs with a modeled per-page device cost, an optional
// per-page read fault, and a record of batched write-back calls — the
// instrumentation the background-I/O integration tests need.
type hookFS struct {
	kernel.FileSystem
	pageCost time.Duration

	failPage int64 // page whose reads fail (-1: none)
	batches  []iodaemon.Run
	probe    func(pg int64) // if set, runs inside every page read
}

func (h *hookFS) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	if h.probe != nil {
		h.probe(pg)
	}
	// Model a device read: the task waits for the transfer, and a failed
	// one is known only when it completes.
	t.Clk.Advance(h.pageCost)
	if h.failPage == pg {
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
// subsystem enabled.
func newIODMount(t *testing.T) (*kernel.Mount, *hookFS, *kernel.Task) {
	return newHookMount(t, false)
}

// newHookMount is newIODMount, with the hookFS mounted as a lendFS when
// lend is set.
func newHookMount(t *testing.T, lend bool) (*kernel.Mount, *hookFS, *kernel.Task) {
	t.Helper()
	k := kernel.New(costmodel.Fast())
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

	stream := func(withDaemon bool) (time.Duration, iodaemon.Stats) {
		k := kernel.New(costmodel.Fast())
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
		var st iodaemon.Stats
		if d := m.IODaemon(); d != nil {
			st = d.Stats()
		}
		return rd.Clk.Now() - start, st
	}

	withRA, st := stream(true)
	without, _ := stream(false)
	if st.FillPages == 0 {
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
func TestReadAheadErrorPropagation(t *testing.T) {
	m, h, task := newIODMount(t)
	const pages = 16
	writeFilePages(t, m, task, "/f", pages)
	m.DropCaches()
	h.setFailPage(8)

	rd := m.IODaemon()
	f, err := m.Open(task, "/f", fsapi.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(task, f)

	buf := make([]byte, fsapi.PageSize)
	// Walk sequentially up to (but not including) the bad page: the
	// demand reads themselves must not fail even though read-ahead runs
	// into page 8.
	for pg := int64(0); pg < 8; pg++ {
		if _, err := f.PRead(task, buf, pg*fsapi.PageSize); err != nil {
			t.Fatalf("demand read of page %d: %v (read-ahead error leaked)", pg, err)
		}
	}
	if rd.Stats().FillErrors == 0 {
		t.Fatal("read-ahead never hit the injected fault")
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
		h.probe = func(pg int64) {
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
		ra := m.IODaemon().Stats().FillPages
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
	if got := m.IODaemon().Stats().Wakeups; got != 0 {
		t.Fatalf("flusher woke %d times below the background threshold", got)
	}
	// ...then 0..9 in one call, crossing it (15 dirty > 8): one wakeup
	// drains both extents as exactly two batched calls.
	ten := bytes.Repeat([]byte{'y'}, 10*fsapi.PageSize)
	if _, err := f.PWrite(task, ten, 0); err != nil {
		t.Fatal(err)
	}
	st := m.IODaemon().Stats()
	if st.Wakeups == 0 {
		t.Fatal("flusher never woke above the background threshold")
	}
	if st.FlushRuns != 2 || st.FlushPages != 15 {
		t.Fatalf("flusher stats = %+v, want 2 runs / 15 pages", st)
	}
	want := []iodaemon.Run{{Start: 0, Count: 10}, {Start: 20, Count: 5}}
	got := h.recordedBatches()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("writepages batches = %v, want %v", got, want)
	}
}

// TestQuiesceOnUnmount checks the unmount path: remaining dirty pages
// drain through one final flusher pass, the daemon stops, and a stopped
// daemon refuses further work.
func TestQuiesceOnUnmount(t *testing.T) {
	k := kernel.New(costmodel.Fast())
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
	d := m.EnableIODaemon(iodaemon.Config{})

	// Dirty a few pages and close without fsync: only unmount writes
	// them back.
	f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	one := bytes.Repeat([]byte{'q'}, fsapi.PageSize)
	for pg := int64(0); pg < 4; pg++ {
		if _, err := f.PWrite(task, one, pg*fsapi.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(task, f); err != nil {
		t.Fatal(err)
	}

	if err := k.Unmount(task, "/mnt"); err != nil {
		t.Fatal(err)
	}
	if !d.Stopped() {
		t.Fatal("daemon still running after unmount")
	}
	st := d.Stats()
	if st.FlushPages != 4 || st.FlushRuns != 1 {
		t.Fatalf("quiesce flushed %+v, want 1 run / 4 pages", st)
	}
	// A stopped daemon refuses new work.
	if _, err := d.FillAhead(iodaemon.WindowBatch, 0, 0, 4, func(*kernel.Task, int64) (bool, error) {
		return false, fmt.Errorf("fill after quiesce")
	}); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats(); after != st {
		t.Fatalf("stopped daemon did work: %+v -> %+v", st, after)
	}
}

// TestIODaemonConcurrentTraffic shares one daemon-enabled mount between
// four sequential readers and four writers under a vclock.Group — the
// shape of a multi-thread benchmark cell — and checks the background
// machinery (window updates, fills, flusher passes, throttling) both did
// its work next to the syscall paths and replays exactly.
func TestIODaemonConcurrentTraffic(t *testing.T) {
	const pages = 32
	run := func() (iodaemon.Stats, time.Duration) {
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
		return m.IODaemon().Stats(), g.Elapsed()
	}
	st, elapsed := run()
	if st.FillPages == 0 || st.Wakeups == 0 || st.FlushPages == 0 {
		t.Fatalf("daemon idle under mixed traffic: %+v", st)
	}
	if st2, e2 := run(); st2 != st || e2 != elapsed {
		t.Fatalf("replay differs: %+v/%v vs %+v/%v", st2, e2, st, elapsed)
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
