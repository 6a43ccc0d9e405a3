package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"bento/internal/bentoks"
	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// The traced run times three seams from outside the simulator:
//
//	S1  the driver's calls into kernel.Mount / kernel.File       (driver.go)
//	S2  forwarding decorators over kernel.FileSystem and, for the two
//	    variants that host bentoimpl, core.FileSystem             (below)
//	S3  a forwarding decorator over blockdev.Backend              (below)
//
// Every call pushes a frame on one stack — a cell runs one goroutine at
// any instant and an op never yields, so the stack is empty between ops —
// and a layer's self time is its spans' duration minus what their direct
// children cover. The self times therefore sum to the S1 total exactly.
type layer uint8

const (
	layerKernel  layer = iota // S1: syscalls, page cache, dcache, iodaemon, core shim
	layerFuse                 // S2 outer on the FUSE variant: the transport
	layerFS                   // S2 (inner on Bento and FUSE): file-system code down to the device front
	layerBackend              // S3: the storage backend
	numLayers
)

var layerNames = [numLayers]string{"kernel", "fuse", "fs", "backend"}

// Backend data-plane methods, timed individually.
const (
	beRead = iota
	beSubmit
	beFlush
	numBackendCalls
)

type span struct {
	name       string
	layer      layer
	parent     int32 // index of the enclosing span, -1 at top level
	start, end int64 // host ns since the tracer was made
}

type frame struct {
	layer layer
	idx   int32
	start int64
	child int64
}

type tracer struct {
	epoch time.Time
	on    bool // inside a timed section; decorators are inert otherwise
	stack []frame

	selfNS  [numLayers]int64
	calls   [numLayers]int64
	totalNS int64 // sum of top-level (S1) span durations

	backendNS    [numBackendCalls]int64
	backendCalls [numBackendCalls]int64

	// Scheduler handoff: from one client's entry into Worker.Yield to
	// whichever client the scheduler admits returning from it.
	yieldFrom    int64
	yieldPending bool
	yieldNS      int64

	keepSpans bool
	spans     []span
}

func newTracer(keepSpans bool) *tracer {
	return &tracer{epoch: time.Now(), stack: make([]frame, 0, 16), keepSpans: keepSpans}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter opens a span and returns a token for exit; -1 when inert.
func (t *tracer) enter(l layer, name string) int {
	if !t.on {
		return -1
	}
	idx := int32(-1)
	if t.keepSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, layer: l, parent: parent})
	}
	t.stack = append(t.stack, frame{layer: l, idx: idx, start: t.now()})
	return len(t.stack) - 1
}

func (t *tracer) exit(tok int) int64 {
	if tok < 0 {
		return 0
	}
	end := t.now()
	f := t.stack[tok]
	t.stack = t.stack[:tok]
	dur := end - f.start
	t.selfNS[f.layer] += dur - f.child
	t.calls[f.layer]++
	if tok > 0 {
		t.stack[tok-1].child += dur
	} else {
		t.totalNS += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].start, t.spans[f.idx].end = f.start, end
	}
	return dur
}

func (t *tracer) yieldBegin() {
	t.yieldFrom, t.yieldPending = t.now(), true
}

func (t *tracer) yieldEnd() {
	if t.yieldPending {
		t.yieldNS += t.now() - t.yieldFrom
		t.yieldPending = false
	}
}

// writeSpans dumps the kept spans as one JSON object per line.
func (t *tracer) writeSpans(path, label string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(bw, "{\"cell\":%q,\"id\":%d,\"parent\":%d,\"layer\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			label, i, s.parent, layerNames[s.layer], s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- S3: blockdev.Backend ---

type backendSeam struct {
	blockdev.Backend
	tr *tracer
}

func (b *backendSeam) timed(call int, tok int) {
	if tok >= 0 {
		b.tr.backendNS[call] += b.tr.exit(tok)
		b.tr.backendCalls[call]++
	}
}

func (b *backendSeam) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	defer b.timed(beRead, b.tr.enter(layerBackend, "read"))
	return b.Backend.ReadBlock(now, blk, buf)
}

func (b *backendSeam) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	defer b.timed(beSubmit, b.tr.enter(layerBackend, "submit"))
	return b.Backend.SubmitBlock(now, blk, buf)
}

func (b *backendSeam) Flush(now int64) (int64, error) {
	defer b.timed(beFlush, b.tr.enter(layerBackend, "flush"))
	return b.Backend.Flush(now)
}

// --- S2: kernel.FileSystemType / kernel.FileSystem ---

type typeSeam struct {
	kernel.FileSystemType
	tr    *tracer
	layer layer
}

func (ts typeSeam) Mount(t *kernel.Task, dev *blockdev.Device) (kernel.FileSystem, error) {
	fs, err := ts.FileSystemType.Mount(t, dev)
	if err != nil {
		return nil, err
	}
	return wrapFS(fs, ts.tr, ts.layer), nil
}

// wrapFS decorates fs and keeps exactly the optional interfaces it has:
// the kernel picks the write-back path and drop_caches reach by type
// assertion, so a decorator that hid or invented one would change
// virtual time.
func wrapFS(fs kernel.FileSystem, tr *tracer, l layer) kernel.FileSystem {
	s := &fsSeam{fs: fs, tr: tr, layer: l}
	bw, isBW := fs.(kernel.BatchWriter)
	dr, isDr := fs.(kernel.BlockCacheDropper)
	switch {
	case isBW && isDr:
		return struct {
			*fsSeam
			batchSeam
			kernel.BlockCacheDropper
		}{s, batchSeam{s, bw}, dr}
	case isBW:
		return struct {
			*fsSeam
			batchSeam
		}{s, batchSeam{s, bw}}
	case isDr:
		return struct {
			*fsSeam
			kernel.BlockCacheDropper
		}{s, dr}
	}
	return s
}

type batchSeam struct {
	s  *fsSeam
	bw kernel.BatchWriter
}

func (b batchSeam) WritePages(t *kernel.Task, ino fsapi.Ino, pg int64, pages [][]byte, newSize int64) error {
	defer b.s.tr.exit(b.s.tr.enter(b.s.layer, "writepages"))
	return b.bw.WritePages(t, ino, pg, pages, newSize)
}

type fsSeam struct {
	fs    kernel.FileSystem
	tr    *tracer
	layer layer
}

func (s *fsSeam) Root() fsapi.Ino { return s.fs.Root() }

func (s *fsSeam) Lookup(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "lookup"))
	return s.fs.Lookup(t, dir, name)
}

func (s *fsSeam) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "getattr"))
	return s.fs.GetAttr(t, ino)
}

func (s *fsSeam) SetSize(t *kernel.Task, ino fsapi.Ino, size int64) error {
	defer s.tr.exit(s.tr.enter(s.layer, "setsize"))
	return s.fs.SetSize(t, ino, size)
}

func (s *fsSeam) Create(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "create"))
	return s.fs.Create(t, dir, name)
}

func (s *fsSeam) Mkdir(t *kernel.Task, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "mkdir"))
	return s.fs.Mkdir(t, dir, name)
}

func (s *fsSeam) Unlink(t *kernel.Task, dir fsapi.Ino, name string) error {
	defer s.tr.exit(s.tr.enter(s.layer, "unlink"))
	return s.fs.Unlink(t, dir, name)
}

func (s *fsSeam) Rmdir(t *kernel.Task, dir fsapi.Ino, name string) error {
	defer s.tr.exit(s.tr.enter(s.layer, "rmdir"))
	return s.fs.Rmdir(t, dir, name)
}

func (s *fsSeam) Rename(t *kernel.Task, odir fsapi.Ino, oname string, ndir fsapi.Ino, nname string) error {
	defer s.tr.exit(s.tr.enter(s.layer, "rename"))
	return s.fs.Rename(t, odir, oname, ndir, nname)
}

func (s *fsSeam) Link(t *kernel.Task, ino fsapi.Ino, dir fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "link"))
	return s.fs.Link(t, ino, dir, name)
}

func (s *fsSeam) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "readdir"))
	return s.fs.ReadDir(t, dir)
}

func (s *fsSeam) Open(t *kernel.Task, ino fsapi.Ino) error {
	defer s.tr.exit(s.tr.enter(s.layer, "open"))
	return s.fs.Open(t, ino)
}

func (s *fsSeam) Release(t *kernel.Task, ino fsapi.Ino) error {
	defer s.tr.exit(s.tr.enter(s.layer, "release"))
	return s.fs.Release(t, ino)
}

func (s *fsSeam) ReadPage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte) error {
	defer s.tr.exit(s.tr.enter(s.layer, "readpage"))
	return s.fs.ReadPage(t, ino, pg, buf)
}

func (s *fsSeam) WritePage(t *kernel.Task, ino fsapi.Ino, pg int64, buf []byte, newSize int64) error {
	defer s.tr.exit(s.tr.enter(s.layer, "writepage"))
	return s.fs.WritePage(t, ino, pg, buf, newSize)
}

func (s *fsSeam) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	defer s.tr.exit(s.tr.enter(s.layer, "fsync"))
	return s.fs.Fsync(t, ino, dataOnly)
}

func (s *fsSeam) Sync(t *kernel.Task) error {
	defer s.tr.exit(s.tr.enter(s.layer, "sync"))
	return s.fs.Sync(t)
}

func (s *fsSeam) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	defer s.tr.exit(s.tr.enter(s.layer, "statfs"))
	return s.fs.StatFS(t)
}

func (s *fsSeam) Unmount(t *kernel.Task) error { return s.fs.Unmount(t) }

// --- S2 inner: core.FileSystem (bentoimpl behind BentoFS or the FUSE daemon) ---

// wrapCoreFS decorates a Bento file system, keeping core.Upgradable when
// the implementation has it.
func wrapCoreFS(fs core.FileSystem, tr *tracer) core.FileSystem {
	s := &coreSeam{fs: fs, tr: tr}
	if up, ok := fs.(core.Upgradable); ok {
		return struct {
			*coreSeam
			core.Upgradable
		}{s, up}
	}
	return s
}

type coreSeam struct {
	fs core.FileSystem
	tr *tracer
}

func (s *coreSeam) BentoName() string { return s.fs.BentoName() }

func (s *coreSeam) Init(t *kernel.Task, disk bentoks.Disk) error { return s.fs.Init(t, disk) }

func (s *coreSeam) Destroy(t *kernel.Task) error { return s.fs.Destroy(t) }

func (s *coreSeam) StatFS(t *kernel.Task) (fsapi.FSStat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "statfs"))
	return s.fs.StatFS(t)
}

func (s *coreSeam) Lookup(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "lookup"))
	return s.fs.Lookup(t, parent, name)
}

func (s *coreSeam) GetAttr(t *kernel.Task, ino fsapi.Ino) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "getattr"))
	return s.fs.GetAttr(t, ino)
}

func (s *coreSeam) SetAttr(t *kernel.Task, ino fsapi.Ino, size int64) error {
	defer s.tr.exit(s.tr.enter(layerFS, "setattr"))
	return s.fs.SetAttr(t, ino, size)
}

func (s *coreSeam) Create(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "create"))
	return s.fs.Create(t, parent, name)
}

func (s *coreSeam) Mkdir(t *kernel.Task, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "mkdir"))
	return s.fs.Mkdir(t, parent, name)
}

func (s *coreSeam) Unlink(t *kernel.Task, parent fsapi.Ino, name string) error {
	defer s.tr.exit(s.tr.enter(layerFS, "unlink"))
	return s.fs.Unlink(t, parent, name)
}

func (s *coreSeam) Rmdir(t *kernel.Task, parent fsapi.Ino, name string) error {
	defer s.tr.exit(s.tr.enter(layerFS, "rmdir"))
	return s.fs.Rmdir(t, parent, name)
}

func (s *coreSeam) Rename(t *kernel.Task, oldParent fsapi.Ino, oldName string, newParent fsapi.Ino, newName string) error {
	defer s.tr.exit(s.tr.enter(layerFS, "rename"))
	return s.fs.Rename(t, oldParent, oldName, newParent, newName)
}

func (s *coreSeam) Link(t *kernel.Task, ino fsapi.Ino, parent fsapi.Ino, name string) (fsapi.Stat, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "link"))
	return s.fs.Link(t, ino, parent, name)
}

func (s *coreSeam) Open(t *kernel.Task, ino fsapi.Ino) error {
	defer s.tr.exit(s.tr.enter(layerFS, "open"))
	return s.fs.Open(t, ino)
}

func (s *coreSeam) Release(t *kernel.Task, ino fsapi.Ino) error {
	defer s.tr.exit(s.tr.enter(layerFS, "release"))
	return s.fs.Release(t, ino)
}

func (s *coreSeam) Read(t *kernel.Task, ino fsapi.Ino, off int64, buf []byte) (int, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "read"))
	return s.fs.Read(t, ino, off, buf)
}

func (s *coreSeam) Write(t *kernel.Task, ino fsapi.Ino, off int64, data []byte) (int, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "write"))
	return s.fs.Write(t, ino, off, data)
}

func (s *coreSeam) Fsync(t *kernel.Task, ino fsapi.Ino, dataOnly bool) error {
	defer s.tr.exit(s.tr.enter(layerFS, "fsync"))
	return s.fs.Fsync(t, ino, dataOnly)
}

func (s *coreSeam) ReadDir(t *kernel.Task, dir fsapi.Ino) ([]fsapi.DirEntry, error) {
	defer s.tr.exit(s.tr.enter(layerFS, "readdir"))
	return s.fs.ReadDir(t, dir)
}

func (s *coreSeam) SyncFS(t *kernel.Task) error {
	defer s.tr.exit(s.tr.enter(layerFS, "syncfs"))
	return s.fs.SyncFS(t)
}
