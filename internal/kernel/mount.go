package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/lru"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// DefaultDirtyLimitPages is the per-mount dirty page budget (8 MiB). A
// writer that pushes the mount past it performs write-back of the file it
// is writing — the balance_dirty_pages analogue that keeps the write
// benchmarks measuring the storage path rather than memcpy.
const DefaultDirtyLimitPages = 2048

// DefaultPageCacheCap bounds cached pages per mount (clean pages are
// evicted beyond it).
const DefaultPageCacheCap = 1 << 18 // 1 GiB of 4K pages

// Mount is one mounted file system: the VFS objects (inode/dentry caches),
// the page cache, and the system-call entry points that benchmarks and
// examples drive.
type Mount struct {
	k          *Kernel
	fstype     string
	mountPoint string
	fs         FileSystem
	dev        *blockdev.Device
	model      *costmodel.Model

	vnodes map[fsapi.Ino]*vnode
	dcache map[dkey]fsapi.Ino

	dirtyPages int64
	dirtyLimit int64

	totalPages int64
	pageCap    int64

	seq int64 // LRU tick for page eviction

	// vnScratch is the snapshot slice forEachVnodeByIno sorts into; the
	// flusher takes a pass per dirty-budget crossing, so allocating fresh
	// would show up on every one.
	vnScratch []*vnode

	// iod is the background I/O subsystem (read-ahead + write-back
	// flusher); nil until EnableIODaemon, and set before the mount sees
	// traffic. The FUSE baseline never enables it — that asymmetry is
	// the paper's point.
	iod *iodaemon.Daemon[*Task]

	// flushFn is m.bdiFlush bound once at mount creation; taking the
	// method value inline would allocate on every balanceDirty call.
	flushFn func(*Task) (int, int, error)

	// freePages and freeData are the mount's free lists of page structs
	// and private page buffers, pageStructs and pageBufs how many of each
	// its arenas have supplied so far (see pagepool.go); putPageFn is
	// m.putPage bound once, for the lru drop callbacks.
	freePages   []*page
	freeData    [][]byte
	pageStructs int
	pageBufs    int
	putPageFn   func(*page)

	// lender is fs as a PageLender, nil when it is not one: asserted once
	// per SwapFS, not once per page.
	lender PageLender
}

type dkey struct {
	dir  fsapi.Ino
	name string
}

// vnode is the in-core inode: cached attributes plus this file's slice of
// the page cache. The page cache is an lru.Core — a radix index over the
// page numbers with dirty tags, and an intrusive recency list.
type vnode struct {
	m   *Mount
	ino fsapi.Ino

	ftype    fsapi.FileType
	size     int64
	opens    int
	unlinked bool // nlink hit zero; discard on last close
	pc       lru.Core[*page]

	// ra is the read-ahead state (used only when m.iod != nil).
	ra iodaemon.Window

	// fillFn is the read-ahead fill callback, built once on first use so
	// FillAhead batches never allocate a fresh closure.
	fillFn func(*Task, int64) (bool, error)

	// Write-back scratch, reused across writeback calls.
	wbKeys  []int64
	wbRuns  []iodaemon.Run
	wbBatch [][]byte
}

// page is one cached 4K page. Readers only bump lastUse (the PRead fast
// path), so recency reaches the LRU list lazily: eviction runs a
// second-chance scan that rotates touched-since-positioned pages back
// to the front.
//
// Pages filled by read-ahead carry readyAt, the virtual time their
// asynchronous device read completes; a reader that catches up with the
// pipeline waits until then. Demand-filled pages leave it zero: their
// device wait was paid synchronously, and a full-page overwrite clears
// it (the overwrite discards the fill's contents, so no wait is owed).
//
// Demand and read-ahead fills alike insert a page only once its contents
// exist (vnode.readPage), the same rule as the buffer caches, so a failed
// fill leaves nothing in the cache to hit.
//
// data is PageSize bytes. When shared is set somebody below the page cache
// may hold the same buffer and it is read-only (see pagepool.go).
type page struct {
	node    lru.Node
	data    []byte
	shared  bool
	readyAt int64
	lastUse int64
}

// LRUNode exposes the intrusive cache hook (lru.Entry).
func (pg *page) LRUNode() *lru.Node { return &pg.node }

// pageRecency is the second-chance recency reader for EvictScan.
func pageRecency(pg *page) int64 { return pg.lastUse }

// tick advances and returns the mount's LRU tick.
func (m *Mount) tick() int64 {
	m.seq++
	return m.seq
}

func newMount(k *Kernel, fstype, mountPoint string, fs FileSystem, dev *blockdev.Device) *Mount {
	m := &Mount{
		k:          k,
		fstype:     fstype,
		mountPoint: mountPoint,
		dev:        dev,
		model:      k.model,
		dirtyLimit: DefaultDirtyLimitPages,
		pageCap:    DefaultPageCacheCap,
		vnodes:     make(map[fsapi.Ino]*vnode),
		dcache:     make(map[dkey]fsapi.Ino),
	}
	m.flushFn = m.bdiFlush
	m.putPageFn = m.putPage
	m.SwapFS(fs)
	return m
}

// FS exposes the mounted file system (used by tools like fsck and by the
// online-upgrade machinery).
func (m *Mount) FS() FileSystem { return m.fs }

// Device reports the device backing this mount.
func (m *Mount) Device() *blockdev.Device { return m.dev }

// SetDirtyLimit overrides the dirty-page budget (testing/benchmarks).
func (m *Mount) SetDirtyLimit(pages int64) {
	if pages > 0 {
		m.dirtyLimit = pages
	}
}

// SetPageCacheCap overrides the page-cache capacity (testing/benchmarks).
func (m *Mount) SetPageCacheCap(pages int64) {
	if pages > 0 {
		m.pageCap = pages
	}
}

// EnableIODaemon starts the background I/O subsystem for this mount:
// per-file sequential read-ahead into the page cache and a cross-vnode
// background write-back flusher, both simulated tasks in virtual time.
// Call it once, after Mount and before the mount sees traffic. The
// zero Config selects Linux-shaped defaults.
func (m *Mount) EnableIODaemon(cfg iodaemon.Config) *iodaemon.Daemon[*Task] {
	m.iod = iodaemon.New(cfg,
		m.k.NewTask("kworker-readahead:"+m.mountPoint),
		m.k.NewTask("kworker-flush:"+m.mountPoint),
		func(at int64) *Task {
			ft := m.k.NewTaskWithClock("kworker-fill:"+m.mountPoint,
				vclock.NewClockAt(time.Duration(at)))
			// The fill task's clock is rebased (SetNS) to each batch's
			// submission time, so spans recorded on it would overlap on
			// one track; read-ahead work is counted and marked with
			// instants instead (see iodaemon.FillAhead), never spanned.
			ft.rec = nil
			return ft
		})
	m.iod.SetRecorder(m.k.rec)
	return m.iod
}

// IODaemon reports the mount's background I/O subsystem (nil when
// disabled).
func (m *Mount) IODaemon() *iodaemon.Daemon[*Task] { return m.iod }

// SwapFS replaces the file-system operations vector. Only the
// online-upgrade machinery in internal/core calls this, from the one
// running task — so no operation is in flight.
func (m *Mount) SwapFS(fs FileSystem) {
	m.fs = fs
	m.lender, _ = fs.(PageLender)
}

// BlockCacheDropper is the optional interface a file system implements
// when its buffer cache should be emptied by DropCaches along with the
// page cache: clean, unreferenced blocks are dropped, dirty ones stay.
// The in-kernel file systems implement it; the FUSE daemon's user-level
// block cache deliberately does not — /proc/sys/vm/drop_caches cannot
// reach a userspace process's memory.
type BlockCacheDropper interface {
	DropCleanBlocks() int
}

// DropCaches evicts all clean cached pages, dentries, and (for file
// systems implementing BlockCacheDropper) clean buffer-cache blocks,
// like /proc/sys/vm/drop_caches; dirty state is untouched. Benchmarks
// use it to measure cold paths: with the data bypass the buffer cache
// holds only metadata, and dropping it too means a "cold" pass re-reads
// inodes and indirect blocks from the device instead of a warm cache.
// Vnodes are visited in ascending inode order — the drops commute, but
// the deterministic-replay contract is simpler to audit when no path
// ever walks a Go map in iteration order.
func (m *Mount) DropCaches() {
	clear(m.dcache)
	_ = m.forEachVnodeByIno(func(vn *vnode) error {
		m.totalPages -= int64(vn.pc.DropCleanFunc(m.putPageFn))
		// The ahead marker points at pages that just vanished; collapse
		// the window so the next stream re-ramps over real misses.
		vn.ra.Reset()
		return nil
	})
	if d, ok := m.fs.(BlockCacheDropper); ok {
		d.DropCleanBlocks()
	}
	// The storage backend may keep its own cache tier below the device
	// front (netstore's read-through object cache). Drop its clean
	// entries too, or a "cold" pass would stream from that cache and
	// never pay network cost. A no-op for the local backend.
	m.dev.DropBackendCache()
}

// vnodeFromStat installs a vnode using attributes we already hold (create
// paths), avoiding a redundant GetAttr.
func (m *Mount) vnodeFromStat(st fsapi.Stat) *vnode {
	if vn, ok := m.vnodes[st.Ino]; ok {
		return vn
	}
	vn := &vnode{
		m:     m,
		ino:   st.Ino,
		ftype: st.Type,
		size:  st.Size,
	}
	m.vnodes[st.Ino] = vn
	return vn
}

// dropVnode removes an unlinked, closed vnode and its pages, recycling
// the pages (nothing can reference them: the file has no opens left).
func (m *Mount) dropVnode(vn *vnode) {
	m.dirtyPages -= int64(vn.pc.DirtyLen())
	m.totalPages -= int64(vn.pc.Len())
	vn.pc.ClearFunc(m.putPageFn)
	delete(m.vnodes, vn.ino)
}

// --- dentry cache ---

func (m *Mount) dcacheGet(t *Task, dir fsapi.Ino, name string) (fsapi.Ino, bool) {
	t.Charge(m.model.PageCacheLookup)
	ino, ok := m.dcache[dkey{dir, name}]
	return ino, ok
}

func (m *Mount) dcachePut(dir fsapi.Ino, name string, ino fsapi.Ino) {
	m.dcache[dkey{dir, name}] = ino
}

func (m *Mount) dcacheDrop(dir fsapi.Ino, name string) {
	delete(m.dcache, dkey{dir, name})
}

// --- path resolution ---

// pathIter walks a path's components without allocating: each component
// is a substring of the original path, so the stat/lookup hot paths
// never materialize a []string. The mount root is "/"; "" and "."
// components are elided; ".." is resolved by the file system (xv6 and
// ext4 both store real "." and ".." entries) — exactly the old
// splitPath normalization.
type pathIter struct {
	path string
	pos  int
}

// next returns the following component, or ok=false at the end.
func (it *pathIter) next() (string, bool) {
	for it.pos < len(it.path) {
		start := it.pos
		for it.pos < len(it.path) && it.path[it.pos] != '/' {
			it.pos++
		}
		name := it.path[start:it.pos]
		it.pos++ // step over the separator (or past the end)
		if name != "" && name != "." {
			return name, true
		}
	}
	return "", false
}

// Resolve walks path to an inode, charging dcache/lookup costs. The
// iterator runs one component ahead so "is this the last component?" is
// known without splitting the whole path up front.
func (m *Mount) Resolve(t *Task, path string) (fsapi.Stat, error) {
	it := pathIter{path: path}
	cur := m.fs.Root()
	name, ok := it.next()
	for ok {
		peek, more := it.next()
		last := !more
		if ino, hit := m.dcacheGet(t, cur, name); hit {
			if last {
				return m.fs.GetAttr(t, ino)
			}
			cur = ino
			name, ok = peek, more
			continue
		}
		st, err := m.fs.Lookup(t, cur, name)
		if err != nil {
			return fsapi.Stat{}, err
		}
		m.dcachePut(cur, name, st.Ino)
		if last {
			return st, nil
		}
		if st.Type != fsapi.TypeDir {
			return fsapi.Stat{}, fsapi.ErrNotDir
		}
		cur = st.Ino
		name, ok = peek, more
	}
	return m.fs.GetAttr(t, cur)
}

// ResolveParent walks to the parent directory of path and returns its
// inode along with the final component (a substring of path).
func (m *Mount) ResolveParent(t *Task, path string) (fsapi.Ino, string, error) {
	it := pathIter{path: path}
	name, ok := it.next()
	if !ok {
		return 0, "", fmt.Errorf("kernel: %q has no final component: %w", path, fsapi.ErrInvalid)
	}
	cur := m.fs.Root()
	for {
		peek, more := it.next()
		if !more {
			return cur, name, nil
		}
		if ino, hit := m.dcacheGet(t, cur, name); hit {
			cur = ino
		} else {
			st, err := m.fs.Lookup(t, cur, name)
			if err != nil {
				return 0, "", err
			}
			if st.Type != fsapi.TypeDir {
				return 0, "", fsapi.ErrNotDir
			}
			m.dcachePut(cur, name, st.Ino)
			cur = st.Ino
		}
		name = peek
	}
}

// --- page cache ---

// loadPage returns the page at idx for vn, reading through the file system
// on a miss.
func (vn *vnode) loadPage(t *Task, idx int64) (*page, error) {
	if pg, ok := vn.pc.Peek(idx); ok {
		t.rec.Add(trace.CtrPageHits, 1)
		pg.lastUse = vn.m.tick()
		if r := pg.readyAt; r != 0 {
			// Read-ahead filled this page; its contents exist only once
			// the asynchronous device read completes.
			t.waitSpan(trace.CatCache, "ra-wait", r)
		}
		return pg, nil
	}
	t.rec.Add(trace.CtrPageMisses, 1)
	// A page inside the file is filled, and a fill supplies every byte of
	// it; a page wholly beyond EOF is filled by nobody and must read as
	// zeros.
	if idx*fsapi.PageSize >= vn.size {
		pg := vn.m.getPage(true)
		vn.insert(idx, pg)
		return pg, nil
	}
	fillStart := t.Clk.NowNS()
	pg, err := vn.readPage(t, idx)
	if err != nil {
		return nil, err
	}
	if r := t.rec; r != nil {
		r.Span(t.Name, trace.CatCache, "page-fill", fillStart, t.Clk.NowNS())
	}
	return pg, nil
}

// readPage fills a fresh page with page idx of the file and only then
// inserts it into vn's cache — the one way a page with file contents
// enters the cache, for demand reads and read-ahead alike. A page is
// never resident before its contents exist, and a failed fill leaves
// nothing behind.
func (vn *vnode) readPage(t *Task, idx int64) (*page, error) {
	pg := vn.m.getPageStruct()
	if err := vn.fill(t, pg, idx); err != nil {
		vn.m.putPage(pg)
		return nil, err
	}
	vn.insert(idx, pg)
	return pg, nil
}

// insert makes pg the resident, most recently used page at idx and
// evicts clean pages if the mount is now over its page budget.
func (vn *vnode) insert(idx int64, pg *page) {
	pg.lastUse = vn.m.tick()
	vn.pc.Add(idx, pg)
	if vn.m.totalPages++; vn.m.totalPages > vn.m.pageCap {
		// Pin the fresh page: with every other page dirty or pinned the
		// scan could otherwise evict it before the caller uses it.
		pg.node.Pin()
		vn.evictClean()
		pg.node.Unpin()
	}
}

// fill gives pg, a page struct without a buffer, the contents of page idx
// of the file: the file system's own buffer when it lends one (a shared
// page), otherwise a private buffer filled through ReadPage. Which of the
// two happened is invisible in virtual time.
func (vn *vnode) fill(t *Task, pg *page, idx int64) error {
	m := vn.m
	if m.lender != nil {
		view, err := m.lender.LendPage(t, vn.ino, idx)
		if err != nil {
			return err
		}
		if view != nil {
			pg.data, pg.shared = view, true
			return nil
		}
	}
	pg.data = m.getPageData() // unspecified contents: ReadPage writes every byte
	return m.fs.ReadPage(t, vn.ino, idx, pg.data)
}

// evictClean drops a handful of clean pages from this vnode in
// second-chance LRU order: pages read since they were last positioned
// (readers only bump lastUse) get rotated back to the front instead of
// evicted.
func (vn *vnode) evictClean() {
	for evicted := 0; evicted < 16; evicted++ {
		victim, ok := vn.pc.EvictScan(pageRecency)
		if !ok {
			return
		}
		vn.m.totalPages--
		vn.m.putPage(victim)
	}
}

// markDirty flags page idx dirty. Reports whether the mount's dirty
// budget is now exceeded.
func (vn *vnode) markDirty(idx int64) (overLimit bool) {
	if vn.pc.MarkDirty(idx) {
		vn.m.dirtyPages++
	}
	return vn.m.dirtyPages > vn.m.dirtyLimit
}

// writeback flushes vn's dirty pages through the file system, using the
// batched ->writepages path when the file system supports it and the
// one-page-per-call ->writepage path otherwise. The per-call overhead
// difference between those two paths is the mechanism behind the paper's
// Bento-vs-VFS write gap.
func (vn *vnode) writeback(t *Task) error {
	_, _, err := vn.writebackCounted(t)
	return err
}

// writebackCounted drains vn's dirty set and reports how many write-back
// calls and pages it issued (the flusher's batching statistics).
func (vn *vnode) writebackCounted(t *Task) (calls, pages int, err error) {
	if vn.pc.DirtyLen() == 0 {
		return 0, 0, nil
	}
	// Snapshot into the vnode's scratch (ascending, coalesced): the
	// flusher fires on every dirty-budget crossing, so rebuilding these
	// slices per pass would dominate the write path's allocations.
	vn.wbKeys = vn.pc.AppendDirtyKeys(vn.wbKeys[:0])
	vn.wbRuns = iodaemon.AppendRuns(vn.wbRuns[:0], vn.wbKeys)
	runs := vn.wbRuns

	bw, batched := vn.m.fs.(BatchWriter)
	model := vn.m.model

	// The buffer of every page handed to write-back is given up (the file
	// system may pass it to the device as the block itself), so the page
	// is shared from here on, whatever the call returns.
	pageData := func(idx int64) []byte {
		pg, _ := vn.pc.Peek(idx)
		pg.shared = true
		return pg.data
	}
	for _, run := range runs {
		if batched {
			batch := vn.wbBatch[:0]
			for i := 0; i < run.Count; i++ {
				batch = append(batch, pageData(run.Start+int64(i)))
			}
			vn.wbBatch = batch
			t.Charge(model.WritepagesCall)
			err := bw.WritePages(t, vn.ino, run.Start, batch, vn.size)
			clear(vn.wbBatch) // drop page refs so eviction can recycle
			vn.wbBatch = vn.wbBatch[:0]
			if err != nil {
				return calls, pages, err
			}
			calls++
			pages += run.Count
			continue
		}
		for i := 0; i < run.Count; i++ {
			idx := run.Start + int64(i)
			t.Charge(model.WritepageCall)
			if err := vn.m.fs.WritePage(t, vn.ino, idx, pageData(idx), vn.size); err != nil {
				return calls, pages, err
			}
			calls++
			pages++
		}
	}
	cleaned := vn.pc.ClearAllDirty()
	vn.m.dirtyPages -= int64(cleaned)
	return calls, pages, nil
}

// writebackAll flushes every vnode's dirty pages (sync path).
func (m *Mount) writebackAll(t *Task) error {
	return m.forEachVnodeByIno(func(vn *vnode) error {
		return vn.writeback(t)
	})
}

// forEachVnodeByIno visits the vnode table in ascending inode order, so
// cross-vnode passes (sync, drop_caches, the background flusher) visit
// files deterministically. A non-nil error from fn stops the walk.
func (m *Mount) forEachVnodeByIno(fn func(*vnode) error) error {
	vns := m.vnScratch[:0]
	m.vnScratch = nil // taken: a walk started from inside fn allocates its own
	for _, vn := range m.vnodes {
		vns = append(vns, vn)
	}
	slices.SortFunc(vns, func(a, b *vnode) int { return cmp.Compare(a.ino, b.ino) })
	var err error
	for _, vn := range vns {
		if err = fn(vn); err != nil {
			break
		}
	}
	clear(vns) // drop vnode refs before the next pass
	m.vnScratch = vns[:0]
	return err
}

// bdiFlush is one background flusher pass (the per-BDI flusher-thread
// analogue): drain every vnode's dirty set in ascending inode order,
// coalescing contiguous dirty pages into batched ->writepages calls.
// It runs on the flusher's task, never an application's.
func (m *Mount) bdiFlush(ft *Task) (calls, pages int, err error) {
	start := ft.Clk.NowNS()
	err = m.forEachVnodeByIno(func(vn *vnode) error {
		c, p, ferr := vn.writebackCounted(ft)
		calls += c
		pages += p
		return ferr
	})
	if r := ft.rec; r != nil && pages > 0 {
		r.SpanAB(ft.Name, trace.CatDaemon, "flush-pass", start, ft.Clk.NowNS(), int64(calls), int64(pages))
	}
	return calls, pages, err
}

// balanceDirty is the write path's dirty-budget policy when the
// background flusher is running (the balance_dirty_pages analogue).
// Crossing the background threshold wakes the flusher, which cleans on
// its own clock; the writer pays only the wakeup. A writer that queued
// work on a flusher still busy in the virtual future — or that blew
// through the hard limit outright — is throttled: writer and flusher
// double-buffer, so sustained write throughput converges on the slower
// of application CPU and device write-back without stalling the
// pipeline.
func (m *Mount) balanceDirty(t *Task) error {
	d := m.iod
	dirty := m.dirtyPages
	if dirty <= d.BackgroundThreshold(m.dirtyLimit) {
		return nil
	}
	t.Charge(m.model.FlusherWakeup)
	over := dirty > m.dirtyLimit
	prev := d.FlusherNow()
	done, err := d.Flush(t.Clk.NowNS(), m.flushFn)
	if err != nil {
		return err
	}
	switch {
	case over:
		d.NoteThrottle()
		t.waitSpan(trace.CatDaemon, "throttle", done)
	case prev > t.Clk.NowNS():
		d.NoteThrottle()
		t.waitSpan(trace.CatDaemon, "throttle", prev)
	}
	return nil
}

// readAhead advises the read-ahead state machine about a demand read
// covering pages [first, last] and schedules asynchronous fills for the
// window it opens. Only called when m.iod != nil. A fully resident
// window — every cached benchmark phase — books no background clock
// traffic at all.
func (vn *vnode) readAhead(t *Task, first, last int64) {
	m := vn.m
	d := m.iod
	cfg := d.Config()
	t.Charge(m.model.ReadaheadUpdate)
	start, count := vn.ra.Access(first, last, cfg.InitWindow, cfg.MaxWindow)
	if count == 0 || vn.size == 0 {
		return
	}
	// Clamp the window to EOF.
	lastPg := (vn.size - 1) / fsapi.PageSize
	if start > lastPg {
		return
	}
	if start+count-1 > lastPg {
		count = lastPg - start + 1
	}
	missing := false
	for pg := start; pg < start+count; pg++ {
		if _, ok := vn.pc.Peek(pg); !ok {
			missing = true
			break
		}
	}
	if !missing {
		return
	}
	if vn.fillFn == nil {
		vn.fillFn = vn.fillPage
	}
	if err := d.FillAhead(t.Clk.NowNS(), start, count, vn.fillFn); err != nil {
		// A failed fill must not fail the demand read that merely
		// triggered it; collapse the window so the stream stops running
		// into the bad region. A demand read of the failed page will
		// surface the error synchronously.
		vn.ra.Reset()
	}
}

// fillPage is read-ahead's fill of page pg on the read-ahead task rt. The
// page is stamped with the fill's completion time, which a reader that
// catches up with the pipeline waits for.
func (vn *vnode) fillPage(rt *Task, pg int64) (bool, error) {
	if _, ok := vn.pc.Peek(pg); ok {
		return false, nil
	}
	p, err := vn.readPage(rt, pg)
	if err != nil {
		return false, err
	}
	p.readyAt = rt.Clk.NowNS()
	return true, nil
}

// shutdown quiesces the background I/O subsystem, syncs everything, and
// unmounts.
func (m *Mount) shutdown(t *Task) error {
	if m.iod != nil {
		// Stop the daemon after a final flusher pass; the unmounting
		// task waits for the flusher to retire.
		done, err := m.iod.Quiesce(m.flushFn)
		if err != nil {
			return err
		}
		t.Clk.AdvanceTo(done)
	}
	if err := m.writebackAll(t); err != nil {
		return err
	}
	if err := m.fs.Sync(t); err != nil {
		return err
	}
	return m.fs.Unmount(t)
}
