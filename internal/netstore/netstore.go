// Package netstore is the object-store storage backend: a
// blockdev.Backend that maps block extents onto fixed-size objects
// behind a network cost model, the simulator's stand-in for running a
// file system over S3/MinIO-class storage (the paper's Bento-over-Riak
// direction). It exists to ask how the kernel-vs-FUSE gap, and the
// batching machinery that creates it, behave when the bottom of the
// stack is three orders of magnitude slower than a local NVMe device.
//
// Layout. Consecutive ObjectBlocks device blocks form one object; block
// b lives at offset (b mod ObjectBlocks)·BlockSize inside object
// b/ObjectBlocks. All network transfer is whole objects — there are no
// byte-range GETs — which is what makes object size the fundamental
// read-amplification / round-trip-amortization trade-off.
//
// Cost model. Requests are served by a vclock.Resource with
// Model.NetChannels channels (the connection pool): in-flight requests
// beyond that queue. A GET or PUT costs first-byte latency
// (NetGetBase/NetPutBase — the -netlat knob) plus NetPer4K per 4KiB of
// object payload (the -netbw knob), so round trips amortize across
// object bytes exactly as they do over a real link.
//
// Cache tier. A read-through object cache (an lru.Core at CacheObjects
// capacity) absorbs block reads and writes: a miss GETs the whole
// object, a write dirties the cached object in place (write-back), and
// Flush coalesces every dirty object into one whole-object PUT, issued
// concurrently across the request channels and fenced by a NetFlush
// barrier. Under cache pressure the victim is the least-recently-used
// clean object; when every resident object is dirty, it is the
// least-recently-used dirty object, written back early (an eviction PUT)
// and then evicted. A journal's hot head — log, bitmap, inode table —
// is touched by every commit, so it stays cached. That early durability
// is allowed by the Backend crash contract, which is one-sided: flushed
// data must survive, staged data may.
//
// Buffers. The wire is modeled, not the bytes, so nothing object-sized
// is allocated, cleared or copied on the steady-state path. An object,
// cached or durable, is a table of per-block buffers, and every buffer in
// a table is immutable (the blockdev.Backend ownership rule): a clean
// cached block shares the durable tier's buffer, a staged write replaces
// the slot's buffer — with a copy in one from the Store's free list, or
// with the caller's own under SubmitOwned — and a PUT hands exactly the
// staged buffers over. BorrowBlock lends a slot's buffer out as it is.
// How the Store keeps track of who may still hold a buffer is on Store.
//
// Determinism. Durable state and completion times are pure functions of
// the call sequence: write-back walks the cache's dirty tags in
// ascending key order, eviction follows the recency list, and crash
// keep-decisions visit staged blocks in ascending order under a seeded
// PRNG.
package netstore

import (
	"fmt"
	"math/bits"
	"math/rand"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/lru"
	"bento/internal/seeded"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// DefaultObjectBlocks is the object extent in blocks (64KiB objects at
// the standard 4KiB block size) — large enough that sequential reads
// amortize the GET round trip, small enough that random-write
// read-modify-write amplification stays visible.
const DefaultObjectBlocks = 16

// DefaultCacheObjects is the default cache capacity in objects (4MiB of
// block data at the defaults): deliberately far smaller than the device,
// so quick-matrix working sets actually exercise eviction.
const DefaultCacheObjects = 64

// Config sizes the store. BlockSize and Blocks must match the owning
// blockdev.Config geometry. New panics on a geometry it cannot serve.
type Config struct {
	Name      string
	BlockSize int
	Blocks    int
	// Model supplies the Net* cost entries and NetChannels.
	Model *costmodel.Model
	// ObjectBlocks is blocks per object (DefaultObjectBlocks if 0; at
	// most 64, the width of the per-object staged-block mask).
	ObjectBlocks int
	// CacheObjects is the cache capacity in objects (DefaultCacheObjects
	// if 0).
	CacheObjects int
	// Faults arms the deterministic network-fault model (see faults.go).
	// The zero value keeps the network perfectly reliable and the
	// request path identical to the pre-fault implementation.
	Faults FaultConfig
}

// durableObj is one stored object's durable tier: a buffer per block (nil
// reads as zeros) and which of them are shared, one bit per block index.
type durableObj struct {
	blocks [][]byte
	shared uint64
}

// object is one cached object: a buffer per block (nil reads as zeros)
// plus which of its blocks are staged (written since last made durable)
// and which are shared (lent or adopted), one bit per block index within
// the object. A staged block's buffer is in no durable table; a clean
// block's aliases the durable table's, shared mark included.
type object struct {
	node   lru.Node
	blocks [][]byte
	dirty  uint64
	shared uint64
}

func (o *object) LRUNode() *lru.Node { return &o.node }

// Store implements blockdev.Backend over a simulated object store. It
// is entered by one task at a time by the cell contract, so Store does
// no locking of its own.
//
// Buffer ownership. Block buffers move between the durable tables,
// cached objects and a free list by pointer and are never written while a
// table references them (docs/architecture.md, "Buffer ownership"). What
// the Store adds to the rule:
//
//  1. A staged block's buffer is referenced by exactly one cached object
//     and by no durable table, so a staged write can never reach the
//     durable tier through an alias.
//  2. A nil block reads as zeros. A never-stored object is a table of
//     nils; there is no shared zero buffer to protect.
//  3. A buffer is shared once BorrowBlock has lent it or SubmitOwned has
//     adopted it. The mark is a bit beside the slot, it moves with the
//     buffer (staged slot to durable slot on a PUT or a kept crash block),
//     and a clean cached slot and the durable slot it aliases always agree
//     on it.
//  4. A buffer enters the free list only when neither a durable table
//     nor any cached object references it and it was never shared: the
//     durable block that a PUT or a block kept by Crash replaces, a staged
//     block that a later write replaces, and the staged blocks of an
//     object dropped by Crash. A shared buffer in the same position is
//     left to the collector.
//  5. A free-list buffer becomes readable only after SubmitBlock has
//     overwritten all BlockSize bytes of it.
//
// "Has ever been stored" is "a durable table exists for the object":
// that, not the table's contents, decides whether a miss pays a GET.
type Store struct {
	name      string
	blockSize int
	objBlocks int
	objBytes  int
	cacheCap  int
	model     *costmodel.Model

	durable map[int64]*durableObj // object id → durable tier (absent = never stored)
	cache   lru.Core[*object]
	staged  int // staged-not-durable blocks across all cached objects

	freeBufs [][]byte  // unreferenced block buffers (rule 4)
	chunk    []byte    // the uncarved rest of the newest objBytes allocation
	freeObjs []*object // object structs of evicted, dropped and crashed objects
	keys     []int64   // dirty-key scratch for Flush and Crash

	res *vclock.Resource
	rec *trace.Recorder
	// Request spans land on one track per channel so spans on a track
	// never overlap (a channel's free time only moves forward); track
	// names are precomputed so recording never formats on a hot path.
	laneTracks []string
	flushTrack string

	// Network-fault model and client policy (see faults.go). faulty
	// gates the whole machinery: when false, requests take the clean
	// path with zero extra draws and zero extra allocations. dec is
	// monotone for the Store's lifetime — Reset and Crash deliberately
	// do not rewind it, or replayed decisions would repeat.
	faults        FaultConfig
	faulty        bool
	errPPM        uint32
	dec           seeded.Decider
	maxAttempts   int
	retryBudget   int64
	breakerK      int
	cooldown      int64
	degradedBound int
	outStart      int64
	outEnd        int64
	consecFails   int
	open          bool
	halfOpenAt    int64
	breakerTrack  string
	// retries and degraded mirror the net_retries and net_degraded
	// trace counters for a caller without a recorder (FaultCounts).
	retries  int64
	degraded int64
}

// New builds the object-store backend. It panics on a configuration it
// cannot serve — a geometry error is a programming error in the caller,
// and failing here beats an index panic deep in SubmitBlock.
func New(cfg Config) *Store {
	if cfg.ObjectBlocks == 0 {
		cfg.ObjectBlocks = DefaultObjectBlocks
	}
	if cfg.CacheObjects == 0 {
		cfg.CacheObjects = DefaultCacheObjects
	}
	switch {
	case cfg.Model == nil:
		panic("netstore: nil cost model")
	case cfg.BlockSize <= 0:
		panic(fmt.Sprintf("netstore: bad block size %d", cfg.BlockSize))
	case cfg.Blocks <= 0:
		panic(fmt.Sprintf("netstore: bad block count %d", cfg.Blocks))
	case cfg.ObjectBlocks < 1 || cfg.ObjectBlocks > 64:
		panic(fmt.Sprintf("netstore: bad object size %d blocks (want 1..64)", cfg.ObjectBlocks))
	case cfg.CacheObjects < 1:
		panic(fmt.Sprintf("netstore: bad cache capacity %d objects", cfg.CacheObjects))
	}
	s := &Store{
		name:      cfg.Name,
		blockSize: cfg.BlockSize,
		objBlocks: cfg.ObjectBlocks,
		objBytes:  cfg.ObjectBlocks * cfg.BlockSize,
		cacheCap:  cfg.CacheObjects,
		model:     cfg.Model,
		durable:   make(map[int64]*durableObj),
		res:       vclock.NewResource(cfg.Name+":net", cfg.Model.NetChannels),
	}
	s.laneTracks = make([]string, cfg.Model.NetChannels)
	for i := range s.laneTracks {
		s.laneTracks[i] = fmt.Sprintf("net#%02d", i)
	}
	s.flushTrack = "net:flush"
	s.initFaults(cfg.Faults)
	return s
}

var _ blockdev.Backend = (*Store)(nil)

// takeBuf returns an unreferenced block buffer with arbitrary contents
// (rule 5: the caller overwrites all of it). New buffers are carved from
// object-sized chunks, so the allocator is entered once per objBlocks
// buffers.
func (s *Store) takeBuf() []byte {
	if n := len(s.freeBufs); n > 0 {
		buf := s.freeBufs[n-1]
		s.freeBufs = s.freeBufs[:n-1]
		return buf
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]byte, s.objBytes)
	}
	buf := s.chunk[:s.blockSize:s.blockSize]
	s.chunk = s.chunk[s.blockSize:]
	return buf
}

// newObject returns a clean object sharing the durable tier's blocks
// and their shared marks (all nil when durable is), recycling a released
// struct when one is free.
func (s *Store) newObject(durable *durableObj) *object {
	var o *object
	if n := len(s.freeObjs); n > 0 {
		o = s.freeObjs[n-1]
		s.freeObjs = s.freeObjs[:n-1]
	} else {
		o = &object{blocks: make([][]byte, s.objBlocks)}
	}
	if durable != nil {
		copy(o.blocks, durable.blocks)
		o.shared = durable.shared
	}
	return o
}

// recycle puts a buffer that no table references any more on the free
// list, unless it was shared (rule 4).
func (s *Store) recycle(buf []byte, shared bool) {
	if buf != nil && !shared {
		s.freeBufs = append(s.freeBufs, buf)
	}
}

// release recycles an object that has left the cache: always its
// struct, and the buffers of its staged blocks (rule 4) — a clean
// block's buffer still belongs to the durable tier.
func (s *Store) release(o *object) {
	for m := o.dirty; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		s.recycle(o.blocks[idx], o.shared>>idx&1 != 0)
	}
	clear(o.blocks)
	o.dirty, o.shared = 0, 0
	o.node.ResetForReuse()
	s.freeObjs = append(s.freeObjs, o)
}

// store makes block idx of o durable by hand-over: the durable table
// takes the staged buffer with its shared mark, and the buffer it
// replaces, which no table references any more, is recycled.
func (s *Store) store(durable *durableObj, o *object, idx int) {
	bit := uint64(1) << idx
	s.recycle(durable.blocks[idx], durable.shared&bit != 0)
	durable.blocks[idx] = o.blocks[idx]
	durable.shared = durable.shared&^bit | o.shared&bit
	o.dirty &^= bit
	s.staged--
}

// durableTable returns objID's durable tier, creating it — the object
// has now been stored — on first use.
func (s *Store) durableTable(objID int64) *durableObj {
	durable, ok := s.durable[objID]
	if !ok {
		durable = &durableObj{blocks: make([][]byte, s.objBlocks)}
		s.durable[objID] = durable
	}
	return durable
}

// get books one GET on the request channels and returns its completion.
// Under the fault model it runs the full retry/hedge policy and can
// fail; the clean path is unchanged from the pre-fault implementation.
func (s *Store) get(now, objID int64) (int64, error) {
	s.rec.Add(trace.CtrNetGets, 1)
	svc := int64(s.model.NetGet(s.objBytes))
	if !s.faulty {
		ch, start, done := s.res.AcquireInfo(now, svc)
		s.rec.SpanAB(s.laneTracks[ch], trace.CatNet, "net-get", start, done, objID, int64(s.objBytes))
		return done, nil
	}
	return s.request(now, objID, svc, reqGet)
}

// put books one PUT of the dirty cached object o on the request channels
// and returns the completion time. On success exactly the staged blocks
// become durable by hand-over — o stays cached, now clean and sharing
// them. On failure o stays dirty and its staged blocks private. flushing
// selects the durability-barrier policy profile (breaker bypass, high
// attempt cap).
func (s *Store) put(now, objID int64, o *object, flushing bool) (int64, error) {
	s.rec.Add(trace.CtrNetPuts, 1)
	svc := int64(s.model.NetPut(s.objBytes))
	var done int64
	if !s.faulty {
		var ch int
		var start int64
		ch, start, done = s.res.AcquireInfo(now, svc)
		s.rec.SpanAB(s.laneTracks[ch], trace.CatNet, "net-put", start, done, objID, int64(s.objBytes))
	} else {
		kind := reqPut
		if flushing {
			kind = reqFlushPut
		}
		var err error
		done, err = s.request(now, objID, svc, kind)
		if err != nil {
			return done, err
		}
	}
	durable := s.durableTable(objID)
	for m := o.dirty; m != 0; m &= m - 1 {
		s.store(durable, o, bits.TrailingZeros64(m))
	}
	s.cache.ClearDirty(objID)
	return done, nil
}

// load materializes objID in the cache from the durable tier, charging
// the GET when the object has ever been stored; once the GET is booked
// the fill is a copy of the block table — the cached object shares the
// durable buffers. A never-written object is all nil blocks without
// network traffic (the fresh-extent optimization: an allocating write
// needs no read-modify-write fill, and the client's extent map already
// knows the object cannot exist). It returns the cached object and the
// fill's completion time (now when no GET was needed). Under the fault
// model the GET can fail — degraded fail-fast or retries exhausted — in
// which case nothing is cached.
func (s *Store) load(now, objID int64) (*object, int64, error) {
	done := now
	durable, stored := s.durable[objID]
	if stored {
		var err error
		done, err = s.get(now, objID)
		if err != nil {
			return nil, done, err
		}
	}
	o := s.newObject(durable)
	s.insert(now, objID, o)
	return o, done, nil
}

// insert adds o under objID, making room first by the eviction rule in
// the package comment. An eviction PUT is booked asynchronously at now —
// the caller does not wait on it. Write-back under pressure is what
// bounds how much staged data a crash can lose, at the price of PUT
// traffic before any flush.
func (s *Store) insert(now, objID int64, o *object) {
	for s.cache.Len() >= s.cacheCap {
		if evicted, ok := s.cache.EvictScan(nil); ok {
			s.release(evicted)
			continue
		}
		// Nothing here is pinned, so every resident object is dirty.
		victim, _ := s.cache.OldestKey()
		vo, _ := s.cache.Peek(victim)
		if _, err := s.put(now, victim, vo, false); err != nil {
			// Degraded or retries exhausted: losing staged data is not
			// an option, so keep the victim dirty and let the cache
			// grow past capacity until the network recovers.
			break
		}
		s.rec.Add(trace.CtrNetEvictPuts, 1)
	}
	s.cache.Add(objID, o)
}

// readObject returns the cached object holding a block to be read: a
// cache hit completes immediately (the network tier adds nothing; CPU and
// cache costs were charged by the layers above); a miss GETs the whole
// object. While the circuit breaker is open, hits are still served — the
// degraded-mode reads the net_degraded counter tallies — and misses fail
// fast.
func (s *Store) readObject(now, objID int64) (*object, int64, error) {
	if o, ok := s.cache.Get(objID); ok {
		s.rec.Add(trace.CtrNetCacheHits, 1)
		if s.faulty && s.open {
			s.degraded++
			s.rec.Add(trace.CtrNetDegraded, 1)
		}
		return o, now, nil
	}
	s.rec.Add(trace.CtrNetCacheMisses, 1)
	return s.load(now, objID)
}

// ReadBlock implements blockdev.Backend.
func (s *Store) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	o, done, err := s.readObject(now, int64(blk/s.objBlocks))
	if err != nil {
		return done, err
	}
	if b := o.blocks[blk%s.objBlocks]; b != nil {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return done, nil
}

// BorrowBlock implements blockdev.Backend: ReadBlock's hit, miss and
// GET, then the slot's buffer itself, now shared (rule 3).
func (s *Store) BorrowBlock(now int64, blk int) ([]byte, int64, error) {
	objID := int64(blk / s.objBlocks)
	o, done, err := s.readObject(now, objID)
	if err != nil {
		return nil, done, err
	}
	idx := blk % s.objBlocks
	b, bit := o.blocks[idx], uint64(1)<<idx
	if b != nil && o.shared&bit == 0 {
		o.shared |= bit
		if o.dirty&bit == 0 {
			s.durable[objID].shared |= bit // clean: the same buffer in both tables
		}
	}
	return b, done, nil
}

// JoinRead implements blockdev.Backend: the store never joins a read to
// the one before it, so a plugged read takes the per-block path —
// ReadBlock or BorrowBlock — exactly as an unplugged one. Its whole-object
// GETs already fetch a run of blocks at once.
func (s *Store) JoinRead(prev int64, blk int, buf []byte) ([]byte, int64, bool) {
	return nil, 0, false
}

// JoinWrite implements blockdev.Backend: the store never joins a write
// either; a plugged write is staged in its cached object exactly as an
// unplugged one, and the object's PUT carries the whole run anyway.
func (s *Store) JoinWrite(prev, now int64, blk int, buf []byte, owned bool) (int64, bool) {
	return 0, false
}

// SubmitBlock implements blockdev.Backend: write-back into the cached
// object. A hit stages the block at no network cost; a miss to an
// object that exists durably pays a read-modify-write GET first. While
// the circuit breaker is open, writes keep queueing in cache up to
// DegradedWriteBlocks staged blocks, then surface EIO.
func (s *Store) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	return s.stage(now, blk, buf, false)
}

// SubmitOwned implements blockdev.Backend: SubmitBlock with buf itself
// becoming the staged block.
func (s *Store) SubmitOwned(now int64, blk int, buf []byte) (int64, error) {
	return s.stage(now, blk, buf, true)
}

func (s *Store) stage(now int64, blk int, buf []byte, owned bool) (int64, error) {
	objID := int64(blk / s.objBlocks)
	idx := blk % s.objBlocks
	o, ok := s.cache.Get(objID)
	done := now
	if ok {
		s.rec.Add(trace.CtrNetCacheHits, 1)
	} else {
		s.rec.Add(trace.CtrNetCacheMisses, 1)
		if s.faulty && s.open && now < s.halfOpenAt && s.staged >= s.degradedBound {
			// Don't bother with the RMW GET (which would fail fast
			// anyway for durable objects) if the write itself would be
			// refused.
			return now, ErrWriteBound
		}
		var err error
		o, done, err = s.load(now, objID)
		if err != nil {
			return done, err
		}
	}
	bit := uint64(1) << idx
	if s.faulty && s.open {
		if o.dirty&bit == 0 && s.staged >= s.degradedBound {
			return done, ErrWriteBound
		}
		s.degraded++
		s.rec.Add(trace.CtrNetDegraded, 1)
	}
	// The write replaces the slot's buffer and copies nothing out of the
	// old one, because it replaces the whole block. A clean slot's old
	// buffer stays the durable tier's (rule 1); a staged slot's is in no
	// other table and is recycled.
	if o.dirty&bit == 0 {
		if o.dirty == 0 {
			s.cache.MarkDirty(objID)
		}
		o.dirty |= bit
		s.staged++
	} else {
		s.recycle(o.blocks[idx], o.shared&bit != 0)
	}
	if owned {
		o.blocks[idx] = buf
		o.shared |= bit
	} else {
		b := s.takeBuf()
		copy(b, buf)
		o.blocks[idx] = b
		o.shared &^= bit
	}
	return done, nil
}

// Flush implements blockdev.Backend: coalesce every dirty object into a
// whole-object PUT — all issued at now, so they overlap across the
// request channels — then fence them with the NetFlush barrier. Flush
// PUTs bypass the circuit breaker's fail-fast and retry until durable
// (the flushMaxAttempts safety valve aside): the durability barrier
// either completes or surfaces EIO with the un-PUT objects still
// staged.
func (s *Store) Flush(now int64) (int64, error) {
	s.keys = s.cache.AppendDirtyKeys(s.keys[:0])
	for _, objID := range s.keys {
		o, _ := s.cache.Peek(objID)
		if done, err := s.put(now, objID, o, true); err != nil {
			return done, err
		}
	}
	done := s.res.AcquireSerial(now, int64(s.model.NetFlush()))
	s.rec.Add(trace.CtrNetFlushes, 1)
	s.rec.Span(s.flushTrack, trace.CatNet, "net-flush", max64(now, done-int64(s.model.NetFlush())), done)
	return done, nil
}

// DirtyBlocks implements blockdev.Backend: blocks staged in cache but
// not yet durable. Eviction PUTs shrink it without a flush — staged
// data made durable early is no longer at risk.
func (s *Store) DirtyBlocks() int { return s.staged }

// Crash implements blockdev.Backend: contents revert to the durable
// tier plus a seeded keepFraction of the staged blocks, chosen per
// block in ascending order so the seed fully determines the outcome; the
// cache (the volatile tier) empties. A kept block becomes durable the
// way a PUT makes it so, by hand-over; the rest go to the free list with
// their objects.
func (s *Store) Crash(keepFraction float64, seed int64) {
	// Same keep discipline as the local backend: ascending blocks under
	// a seeded source, so a (seed, keepFraction) pair replays
	// identically. Ascending objects, each visited in ascending bit
	// order, is ascending block order.
	s.keys = s.cache.AppendDirtyKeys(s.keys[:0])
	rng := rand.New(rand.NewSource(seed))
	for _, objID := range s.keys {
		o, _ := s.cache.Peek(objID)
		for m := o.dirty; m != 0; m &= m - 1 {
			if rng.Float64() < keepFraction {
				s.store(s.durableTable(objID), o, bits.TrailingZeros64(m))
			}
		}
	}
	s.cache.ClearFunc(s.release)
	s.staged = 0
	s.res.Reset()
}

// QueueDepth implements blockdev.Backend: object-store requests in
// flight at now.
func (s *Store) QueueDepth(now int64) int { return s.res.InUse(now) }

// ResourceStats implements blockdev.Backend for the request channels.
func (s *Store) ResourceStats() vclock.ResourceStats { return s.res.Stats() }

// Reset implements blockdev.Backend.
func (s *Store) Reset() { s.res.Reset() }

// SetRecorder implements blockdev.Backend.
func (s *Store) SetRecorder(r *trace.Recorder) { s.rec = r }

// DropCache implements blockdev.Backend: evict every clean cached
// object so subsequent reads genuinely pay network cost again. Dirty
// objects stay — staged data must survive a cache drop.
func (s *Store) DropCache() { s.cache.DropCleanFunc(s.release) }

// CacheLen reports resident objects (tests).
func (s *Store) CacheLen() int { return s.cache.Len() }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
