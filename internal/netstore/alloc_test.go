package netstore_test

import (
	"strings"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/netstore"
	"bento/internal/trace"
)

// TestNewRejectsBadConfig: a geometry the store cannot serve panics in
// New with a netstore:-prefixed message instead of surfacing later as an
// index panic on the data path.
func TestNewRejectsBadConfig(t *testing.T) {
	good := netstore.Config{Name: "net0", BlockSize: 4096, Blocks: 64, Model: costmodel.Default()}
	for _, tc := range []struct {
		name string
		edit func(*netstore.Config)
		want string // substring of the panic message; "" = must not panic
	}{
		{"defaults", func(c *netstore.Config) {}, ""},
		{"one-block objects", func(c *netstore.Config) { c.ObjectBlocks = 1 }, ""},
		{"mask-width objects", func(c *netstore.Config) { c.ObjectBlocks = 64 }, ""},
		{"objects wider than the mask", func(c *netstore.Config) { c.ObjectBlocks = 65 }, "bad object size 65"},
		{"negative object size", func(c *netstore.Config) { c.ObjectBlocks = -1 }, "bad object size -1"},
		{"zero block size", func(c *netstore.Config) { c.BlockSize = 0 }, "bad block size 0"},
		{"negative block size", func(c *netstore.Config) { c.BlockSize = -4096 }, "bad block size -4096"},
		{"zero blocks", func(c *netstore.Config) { c.Blocks = 0 }, "bad block count 0"},
		{"negative cache", func(c *netstore.Config) { c.CacheObjects = -2 }, "bad cache capacity -2"},
		{"nil model", func(c *netstore.Config) { c.Model = nil }, "nil cost model"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.edit(&cfg)
			defer func() {
				msg, _ := recover().(string)
				switch {
				case tc.want == "" && msg != "":
					t.Fatalf("New panicked on a valid config: %s", msg)
				case tc.want != "" && !(strings.HasPrefix(msg, "netstore: ") && strings.Contains(msg, tc.want)):
					t.Fatalf("New panic = %q, want a netstore: message containing %q", msg, tc.want)
				}
			}()
			netstore.New(cfg)
		})
	}
}

// steady is a fault-free Store at its allocation steady state: objects
// 0..objects-1 all exist durably (so no PUT grows the durable map), the
// cache is full, and the free lists have been through a whole cycle.
// The geometry is the benchmark's: 64KiB objects in a 64-object cache,
// under a working set four times that.
type steady struct {
	tb      testing.TB
	s       *netstore.Store
	objects int
	now     int64
	next    int // the next object the rotating cursors visit
	buf     []byte
}

const steadyObjBytes = netstore.DefaultObjectBlocks * 4096

func newSteady(tb testing.TB) *steady {
	tb.Helper()
	const objects = 4 * netstore.DefaultCacheObjects
	st := &steady{
		tb: tb,
		s: netstore.New(netstore.Config{
			Name: "net0", BlockSize: 4096, Blocks: objects * netstore.DefaultObjectBlocks, Model: costmodel.Default(),
		}),
		objects: objects,
		buf:     make([]byte, 4096),
	}
	// Two write passes: the first creates every durable object, the
	// second replaces each one, which is what stocks the free lists.
	for pass := 0; pass < 2; pass++ {
		for obj := 0; obj < objects; obj++ {
			st.write(obj)
		}
		st.flush()
	}
	return st
}

func (st *steady) settle(done int64, err error) {
	if err != nil {
		st.tb.Fatal(err)
	}
	if done > st.now {
		st.now = done
	}
}

func (st *steady) read(obj int) {
	st.settle(st.s.ReadBlock(st.now, obj*netstore.DefaultObjectBlocks, st.buf))
}

func (st *steady) borrow(obj int) {
	_, done, err := st.s.BorrowBlock(st.now, obj*netstore.DefaultObjectBlocks+1)
	st.settle(done, err)
}

func (st *steady) write(obj int) {
	st.settle(st.s.SubmitBlock(st.now, obj*netstore.DefaultObjectBlocks+1, st.buf))
}

func (st *steady) flush() { st.settle(st.s.Flush(st.now)) }

// cold returns an object that is not resident: the cursor walks a
// working set four times the cache, so by the time it comes back around
// the object has long been evicted.
func (st *steady) cold() int {
	obj := st.next
	st.next = (st.next + 1) % st.objects
	return obj
}

// dirtyCache fills the cache with dirty objects.
func dirtyCache(st *steady) {
	for i := 0; i < netstore.DefaultCacheObjects; i++ {
		st.write(st.cold())
	}
}

// flushBatch is how many objects the Flush path dirties per barrier.
const flushBatch = 16

// The steady-state paths under contract: prepare (optional) brings the
// store to the state the loop runs in, and step is one iteration of a
// loop that can run forever without allocating.
var steadyPaths = []struct {
	name    string
	bytes   int64 // object payload moved per step, for b.SetBytes
	prepare func(st *steady)
	step    func(st *steady)
}{
	// A cold read of a durable object: GET, evict a clean object, share
	// the durable buffer.
	{"ReadMiss", steadyObjBytes, nil, func(st *steady) { st.read(st.cold()) }},
	// A page-cache fill by reference from a resident object: the cache
	// lookup and the shared mark, no copy.
	{"BorrowHit", 4096, func(st *steady) { st.read(0) }, func(st *steady) { st.borrow(0) }},
	// A write miss to a durable object with a clean victim at hand: the
	// read-modify-write GET, the staged block's private buffer, and the
	// single-object flush that keeps the next victim clean.
	{"WriteMissRMW", steadyObjBytes, nil, func(st *steady) { st.write(st.cold()); st.flush() }},
	// A staged write to a durable, cached-clean object: one block buffer
	// off the free list, and the flush that hands it over and puts the
	// one it replaces back.
	{"WriteHitClean", 4096, func(st *steady) { st.read(0) }, func(st *steady) { st.write(0); st.flush() }},
	// A write to a resident, already-dirty object.
	{"WriteHit", 4096, dirtyCache, func(st *steady) { st.write((st.next + st.objects - 1) % st.objects) }},
	// A write miss into an all-dirty cache: eviction PUT (hand-over,
	// replaced durable block to the free list), GET, one block buffer.
	{"EvictionPut", 2 * steadyObjBytes, dirtyCache, func(st *steady) { st.write(st.cold()) }},
	// Dirty the flushBatch resident objects behind the cursor, then one
	// Flush: that many staged blocks and hand-over PUTs, one barrier.
	{"Flush", flushBatch * steadyObjBytes,
		func(st *steady) {
			for i := 0; i < flushBatch; i++ {
				st.read(st.cold())
			}
		},
		func(st *steady) {
			for i := 0; i < flushBatch; i++ {
				st.write((st.next + st.objects - 1 - i) % st.objects)
			}
			st.flush()
		}},
}

// startSteady builds a steady store prepared for steadyPaths[i].
func startSteady(tb testing.TB, i int) *steady {
	st := newSteady(tb)
	if prepare := steadyPaths[i].prepare; prepare != nil {
		prepare(st)
	}
	return st
}

// TestSteadyStateAllocs is the backend's allocation contract: once the
// free lists are warm and the objects involved exist durably, no path
// through the object tier allocates — no block buffer, no block table,
// no object struct, no dirty-key slice.
func TestSteadyStateAllocs(t *testing.T) {
	// A path's witness is a counter one more step must raise, so the row
	// still runs the path it is named for.
	witness := map[string]string{"EvictionPut": "net_evict_puts"}
	for i, p := range steadyPaths {
		t.Run(p.name, func(t *testing.T) {
			st := startSteady(t, i)
			// More runs than the working set has objects: the loop goes
			// twice round every slot it can reuse.
			if n := testing.AllocsPerRun(2*st.objects, func() { p.step(st) }); n != 0 {
				t.Fatalf("%s allocates %.1f per step at steady state, want 0", p.name, n)
			}
			if ctr, ok := witness[p.name]; ok {
				rec := trace.New()
				st.s.SetRecorder(rec)
				p.step(st)
				if rec.Counters()[ctr] == 0 {
					t.Fatalf("%s step raised no %s", p.name, ctr)
				}
			}
		})
	}
}

func benchSteady(b *testing.B, name string) {
	for i, p := range steadyPaths {
		if p.name != name {
			continue
		}
		st := startSteady(b, i)
		b.SetBytes(p.bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.step(st)
		}
		return
	}
	b.Fatalf("no steady path %q", name)
}

// The per-layer microbenchmarks for the object tier: host ns, MB/s of
// object payload, and allocs per step.
func BenchmarkReadMiss(b *testing.B)     { benchSteady(b, "ReadMiss") }
func BenchmarkWriteMissRMW(b *testing.B) { benchSteady(b, "WriteMissRMW") }
func BenchmarkFlush(b *testing.B)        { benchSteady(b, "Flush") }
func BenchmarkBorrowHit(b *testing.B)    { benchSteady(b, "BorrowHit") }

// BenchmarkEvictionPutCycle is the C-Kernel log pattern: a 64-object
// cache full of dirty objects, and per iteration one block staged in
// object 0 (the log head) and one in objects 64…319 round-robin. Object
// 0 is the most recently used object whenever an eviction runs, so it is
// never the victim: its write hits, the round-robin write misses into
// an all-dirty cache, and each step is one eviction PUT. The durable
// set stays bounded at 320 objects.
func BenchmarkEvictionPutCycle(b *testing.B) {
	const (
		cache   = netstore.DefaultCacheObjects
		objects = 5 * cache
	)
	st := &steady{
		tb: b,
		s: netstore.New(netstore.Config{
			Name: "net0", BlockSize: 4096, Blocks: objects * netstore.DefaultObjectBlocks, Model: costmodel.Default(),
		}),
		objects: objects,
		buf:     make([]byte, 4096),
	}
	step := func(i int) {
		st.write(0)
		st.write(cache + i%(objects-cache))
	}
	for obj := 0; obj < cache; obj++ {
		st.write(obj)
	}
	// Twice round the rotation: every object durable, the free lists warm.
	for i := 0; i < 2*(objects-cache); i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
