package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"bento/internal/harness"
)

// An op is one system call a simulated client issues. The generators
// below build every client's complete op list from the seed before a
// target exists; the simulator only ever sees the list, so all four
// variants execute byte-identical input.
type opKind uint8

const (
	opOpen   opKind = iota // open paths[path] into handle slot
	opCreate               // create paths[path] into handle slot
	opClose                // close handle slot
	opRead                 // pread n bytes at off from slot; contents are file's
	opWrite                // pwrite n bytes at off to slot, contents of file
	opFsync                // fsync slot
	opStat                 // stat paths[path]; size must equal off
	opUnlink               // unlink paths[path]
	numOpKinds
)

var opNames = [numOpKinds]string{"open", "create", "close", "pread", "pwrite", "fsync", "stat", "unlink"}

type op struct {
	kind opKind
	slot uint8  // client-local handle slot
	path uint32 // index into workload.paths
	file uint32 // content id (see content)
	n    int32
	off  int64
}

// fileSpec is a file the benchmark expects to exist with known contents:
// populated before the first phase (workload.initial) or left behind by
// the op lists (workload.final, read back in full after the last phase).
type fileSpec struct {
	path uint32
	file uint32
	size int64
}

// A phase is one timed section: every client runs its list to the end
// under the vclock scheduler. Phases sharing a name are reported as one.
type phase struct {
	name       string
	dropCaches bool // Mount.DropCaches before the phase (untimed)
	clients    [][]op
}

type workload struct {
	name    string
	backend string
	// devBlocks and inodes override harness.Quick()'s device when > 0.
	devBlocks int
	inodes    uint32
	paths     []string
	dirs      []string
	initial   []fileSpec
	warm      bool // read every initial file once after populating (untimed)
	phases    []phase
	final     []fileSpec
}

func (w *workload) ops() int {
	n := 0
	for _, ph := range w.phases {
		for _, c := range ph.clients {
			n += len(c)
		}
	}
	return n
}

func (w *workload) maxClients() int {
	n := 0
	for _, ph := range w.phases {
		n = max(n, len(ph.clients))
	}
	return n
}

// hash fingerprints the generated input (paths, files, every op) for the
// determinism tests and the run header.
func (w *workload) hash() uint64 {
	h := fnv.New64a()
	var b [32]byte
	put := func(vs ...uint64) {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		h.Write(b[:8*len(vs)])
	}
	for _, p := range w.paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	for _, fs := range [][]fileSpec{w.initial, w.final} {
		for _, f := range fs {
			put(uint64(f.path), uint64(f.file), uint64(f.size))
		}
	}
	for _, ph := range w.phases {
		h.Write([]byte(ph.name))
		for ci, c := range ph.clients {
			put(uint64(ci), uint64(len(c)))
			for _, o := range c {
				put(uint64(o.kind)|uint64(o.slot)<<8|uint64(o.path)<<16, uint64(o.file), uint64(o.n), uint64(o.off))
			}
		}
	}
	return h.Sum64()
}

func (w *workload) addPath(p string) uint32 {
	w.paths = append(w.paths, p)
	return uint32(len(w.paths) - 1)
}

// maxIO bounds a single read or write, and therefore the largest file the
// mail workload reads whole.
const maxIO = 256 << 10

// contentPeriod is deliberately not a multiple of the block size: data
// that comes back from the wrong block, page or object cannot alias the
// expected bytes.
const contentPeriod = 1<<20 + 4099

// content defines every byte the benchmark writes as a pure function of
// (seed, file id, offset), served as slices of one shared buffer so the
// timed loop never builds a payload.
type content struct{ buf []byte }

func newContent(seed int64) *content {
	buf := make([]byte, contentPeriod+maxIO)
	rand.New(rand.NewSource(seed ^ 0x62656e746f)).Read(buf[:contentPeriod])
	copy(buf[contentPeriod:], buf[:maxIO])
	return &content{buf: buf}
}

// at returns the n <= maxIO bytes file holds at off.
func (c *content) at(file uint32, off int64, n int) []byte {
	i := (off + int64(file)*7919) % contentPeriod
	return c.buf[i : i+int64(n)]
}

const ioChunk = 128 << 10

// scale sizes the workloads; the tests run at a fraction of fullScale.
type scale struct {
	hotDraws    int   // hot-read mix draws
	hotFiles    int   // hot-read files
	hotFileSize int64 // bytes per hot-read file
	localFile   int64 // local-stream bytes per client file
	localPasses int
	netFile     int64 // net-stream bytes per client file
	netPasses   int
	mailFiles   int // initial messages per client
	mailLoops   int // varmail loops per client
	// devBlocks and inodes shrink the device below harness.Quick()'s when
	// > 0; fsck walks all of it.
	devBlocks int
	inodes    uint32
}

var fullScale = scale{
	hotDraws: 300_000, hotFiles: 32, hotFileSize: 512 << 10,
	localFile: 12 << 20, localPasses: 3,
	netFile: 6 << 20, netPasses: 4,
	mailFiles: 200, mailLoops: 700,
}

var workloadNames = []string{"hot-read", "local-stream", "mail-fsync", "net-stream"}

var workloadWhy = map[string]string{
	"hot-read":     "1 client, 16 MiB warmed in a 1 GiB page cache: 70% random 4 KiB pread, 20% stat, 10% open+close. All host time is in kernel (syscalls, page cache, dcache, core shim); fs and backend do nothing.",
	"local-stream": "4 clients, 4 x 12 MiB on the local backend (past ext4's 32 MiB buffer cache): 128 KiB sequential write+fsync, then 3 cold read passes. iodaemon, fs bmap, 32 backend calls per op, device queue.",
	"mail-fsync":   "2 clients x 200 small messages, varmail loops (unlink, create+append+fsync, read+append+fsync, read): journal commits, buffer cache, dirent churn, FLUSH. The write-side user of kernel and blockdev.",
	"net-stream":   "local-stream's op list at 4 x 6 MiB, 4 read passes, on the netstore backend (24 MiB vs a 4 MiB object cache): isolates GET/PUT, the object cache and whole-object copies from the layers above.",
}

func generate(name string, seed int64, sc scale) (*workload, error) {
	var w *workload
	switch name {
	case "hot-read":
		w = genHotRead(seed, sc)
	case "local-stream":
		w = genStream(seed, harness.BackendLocal, sc.localFile, sc.localPasses)
	case "mail-fsync":
		w = genMail(seed, sc)
	case "net-stream":
		w = genStream(seed, harness.BackendNetstore, sc.netFile, sc.netPasses)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.name, w.devBlocks, w.inodes = name, sc.devBlocks, sc.inodes
	return w, nil
}

// genHotRead: one client holds every file open and draws from the mix.
// Offsets are sector- not page-aligned, so most reads straddle two pages.
func genHotRead(seed int64, sc scale) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{backend: harness.BackendLocal, warm: true, dirs: []string{"/hot"}}
	for i := 0; i < sc.hotFiles; i++ {
		p := w.addPath(fmt.Sprintf("/hot/f%02d", i))
		w.initial = append(w.initial, fileSpec{path: p, file: uint32(i), size: sc.hotFileSize})
	}
	w.final = w.initial
	ops := make([]op, 0, sc.hotDraws+sc.hotDraws/8+2*sc.hotFiles)
	for i := 0; i < sc.hotFiles; i++ {
		ops = append(ops, op{kind: opOpen, slot: uint8(i), path: uint32(i)})
	}
	spare := uint8(sc.hotFiles)
	for d := 0; d < sc.hotDraws; d++ {
		f := uint32(rng.Intn(sc.hotFiles))
		switch r := rng.Intn(10); {
		case r < 7:
			off := rng.Int63n((sc.hotFileSize-4096)/512+1) * 512
			ops = append(ops, op{kind: opRead, slot: uint8(f), file: f, off: off, n: 4096})
		case r < 9:
			ops = append(ops, op{kind: opStat, path: f, off: sc.hotFileSize})
		default:
			ops = append(ops, op{kind: opOpen, slot: spare, path: f}, op{kind: opClose, slot: spare})
		}
	}
	for i := 0; i < sc.hotFiles; i++ {
		ops = append(ops, op{kind: opClose, slot: uint8(i)})
	}
	w.phases = []phase{{name: "main", clients: [][]op{ops}}}
	return w
}

// genStream: four clients each write one file front to back in 128 KiB
// chunks and fsync it; then every pass drops the caches and streams the
// files back. The seed trims each file by up to 15 pages: enough that the
// clients finish apart and simulated results differ from seed to seed,
// too little to change how the files interleave on the device — host cost
// per op turned out to move by 10% with the layout when sizes differed by
// a few percent.
func genStream(seed int64, backend string, fileBytes int64, passes int) *workload {
	const clients = 4
	rng := rand.New(rand.NewSource(seed))
	w := &workload{backend: backend}
	sizes := make([]int64, clients)
	for c := range sizes {
		p := w.addPath(fmt.Sprintf("/s%d", c))
		sizes[c] = fileBytes - rng.Int63n(16)*4096
		w.final = append(w.final, fileSpec{path: p, file: uint32(c), size: sizes[c]})
	}
	stream := func(first, body opKind) [][]op {
		lists := make([][]op, clients)
		for c := range lists {
			l := []op{{kind: first, path: uint32(c)}}
			for off := int64(0); off < sizes[c]; off += ioChunk {
				l = append(l, op{kind: body, file: uint32(c), off: off, n: int32(min(ioChunk, sizes[c]-off))})
			}
			if body == opWrite {
				l = append(l, op{kind: opFsync})
			}
			lists[c] = append(l, op{kind: opClose})
		}
		return lists
	}
	w.phases = append(w.phases, phase{name: "write_out", clients: stream(opCreate, opWrite)})
	for p := 0; p < passes; p++ {
		w.phases = append(w.phases, phase{name: "read_back", dropCaches: true, clients: stream(opOpen, opRead)})
	}
	return w
}

// genMail: filebench's varmail loop per client over its own directory,
// one op per flowop (13 per loop). The generator tracks which messages
// are live and how long each is, so reads know what to expect.
func genMail(seed int64, sc scale) *workload {
	const clients = 2
	w := &workload{backend: harness.BackendLocal}
	lists := make([][]op, clients)
	nextFile := uint32(0)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		dir := fmt.Sprintf("/mail%d", c)
		w.dirs = append(w.dirs, dir)
		var live []fileSpec
		newMsg := func(size int64) fileSpec {
			f := fileSpec{path: w.addPath(fmt.Sprintf("%s/m%06d", dir, nextFile)), file: nextFile, size: size}
			nextFile++
			return f
		}
		// Sizes in 512-byte steps: 8-24 KiB messages, 4-12 KiB appends.
		for i := 0; i < sc.mailFiles; i++ {
			live = append(live, newMsg(8192+rng.Int63n(33)*512))
		}
		w.initial = append(w.initial, live...)
		appendLen := func(f fileSpec) int32 {
			return int32(min(4096+rng.Int63n(17)*512, maxIO-f.size))
		}
		l := make([]op, 0, 13*sc.mailLoops)
		for i := 0; i < sc.mailLoops; i++ {
			v := rng.Intn(len(live))
			l = append(l, op{kind: opUnlink, path: live[v].path})
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]

			m := newMsg(0)
			n := appendLen(m)
			l = append(l, op{kind: opCreate, path: m.path},
				op{kind: opWrite, file: m.file, n: n}, op{kind: opFsync}, op{kind: opClose})
			m.size = int64(n)
			live = append(live, m)

			a := &live[rng.Intn(len(live))]
			n = appendLen(*a)
			l = append(l, op{kind: opOpen, path: a.path},
				op{kind: opRead, file: a.file, n: int32(a.size)},
				op{kind: opWrite, file: a.file, off: a.size, n: n}, op{kind: opFsync}, op{kind: opClose})
			a.size += int64(n)

			r := live[rng.Intn(len(live))]
			l = append(l, op{kind: opOpen, path: r.path},
				op{kind: opRead, file: r.file, n: int32(r.size)}, op{kind: opClose})
		}
		lists[c] = l
		w.final = append(w.final, live...)
	}
	w.phases = []phase{{name: "main", clients: lists}}
	return w
}
