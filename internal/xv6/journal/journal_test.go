package journal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bento/internal/costmodel"
	"bento/internal/kernel"
	"bento/internal/xv6/journal"
	"bento/internal/xv6/layout"
)

// The crash model: the log runs over modelDisk, which keeps every block
// as the log and its file system see it (the cache) and every device
// write and FLUSH with its submission and completion time. A generator
// drives seeded operation sequences on two or three tasks, one at a time
// and lowest clock first, as the scheduler runs them, on a log with
// barriers or without them. Each sequence is then cut at every instant a
// write completes: what was durable by then stays, and each other write
// submitted by then is kept or lost, over seeded subsets. With barriers a
// write is durable once a FLUSH issued after it completed has completed;
// without them, once it has completed, as bentoimpl.PolicyWriteBack
// assumes of the device. Recover runs on a fresh Log over each crash
// image, and the home blocks it leaves must be the state after a prefix
// of the committed transactions: at least every transaction whose
// committing EndOp or Sync had returned, at most every one whose record
// had been submitted. Each transaction of the prefix shows its own
// writes, its ordered data included, or later ones. This is the check of
// the log's recovery: every file system of the xv6 design runs this log,
// and what the tests of their mounts check is what they hand it.

// The model's blocks hold a block's version in their first word. A
// record block of bigBlock bytes holds a record of a log of up to eight
// slots beside a data list of up to ten blocks, more than a sequence's
// six home blocks. One of smallBlock bytes holds four words of lists: a
// record of a log of four slots that logs three blocks cannot list a
// data block beside them.
const (
	bigBlock   = 128
	smallBlock = 36
)

// A devWrite is one device write: its block and contents, and when it
// was submitted and completes, in virtual nanoseconds.
type devWrite struct {
	blk      uint32
	data     []byte
	at, done int64
}

// A devFlush is one FLUSH: every write completed by at is durable from
// done on. A FLUSH takes 60 µs, longer than any write, so checkpoints run
// long enough for the next commits to overlap them.
type devFlush struct{ at, done int64 }

// modelDisk is journal.Disk over a model device whose writes complete in
// any order, seeded. What is durable at a cut is the crash rule's to say
// (modelRun.crash).
type modelDisk struct {
	rng     *rand.Rand
	cache   [][]byte
	writes  []devWrite
	flushes []devFlush
	jt      *kernel.Task
	records [2]uint32
	// recorded maps each commit's sequence number to when its record's
	// write was submitted, and listed to how many data blocks it listed.
	recorded, listed map[int64]int64
}

func (d *modelDisk) submit(t *kernel.Task, blk uint32) int64 {
	now := t.Clk.NowNS()
	w := devWrite{blk: blk, data: bytes.Clone(d.cache[blk]), at: now, done: now + 2_000 + d.rng.Int63n(30_000)}
	d.writes = append(d.writes, w)
	if d.recorded != nil && (blk == d.records[0] || blk == d.records[1]) {
		if seq, _, blocks, data := layout.DecodeCommitRecord(w.data, ^uint32(0)); len(blocks) > 0 {
			d.recorded[int64(seq)], d.listed[int64(seq)] = now, int64(len(data))
		}
	}
	return w.done
}

func (d *modelDisk) CopyBlock(t *kernel.Task, from, to uint32) (int64, uint32, error) {
	d.cache[to] = bytes.Clone(d.cache[from])
	return d.submit(t, to), layout.BlockSum(d.cache[to]), nil
}

func (d *modelDisk) SubmitHome(t *kernel.Task, blk uint32) (int64, error) {
	return d.submit(t, blk), nil
}

func (d *modelDisk) ReadBlocks(t *kernel.Task, blks, sums []uint32) error {
	for i := range sums {
		sums[i] = layout.BlockSum(d.cache[blks[i]])
	}
	t.Clk.AdvanceTo(t.Clk.NowNS() + 10_000)
	return nil
}

func (d *modelDisk) WithHeader(t *kernel.Task, blk uint32, fill bool, use journal.HeaderFunc) error {
	if !fill {
		clear(d.cache[blk])
	}
	return use(t, header{d, blk}, d.cache[blk])
}

func (d *modelDisk) Flush(t *kernel.Task) error {
	now := t.Clk.NowNS()
	d.flushes = append(d.flushes, devFlush{at: now, done: now + 60_000})
	t.Clk.AdvanceTo(now + 60_000)
	return nil
}

func (d *modelDisk) JournalTask(*kernel.Task) *kernel.Task { return d.jt }

type header struct {
	d   *modelDisk
	blk uint32
}

func (h header) WriteSync(t *kernel.Task) error {
	t.Clk.AdvanceTo(h.d.submit(t, h.blk))
	return nil
}

// version is the contents of a home block of size bytes at version v.
func version(size int, v uint64) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// An event is one write of a home block by the file system: joined to
// transaction txn's log, or written in place as its ordered data.
type event struct {
	txn  int64
	data bool
	v    uint64
}

// A modelRun is one generated sequence and what it did.
type modelRun struct {
	seed     int64
	policy   journal.Policy
	barriers bool // the log's setting, and the crash rule verify judges it by
	sb       layout.Superblock
	homes    []uint32
	initial  [][]byte
	disk     *modelDisk
	hist     map[uint32][]event
	returned map[int64]int64 // commit sequence → when its committing call returned
	// preflushed counts the commits that carried ordered data their
	// record did not fit, and so made it durable before the record.
	preflushed int
	trail      []string // the operations, for a failure's report
}

// step is one planned action of an open operation: a block logged or
// written as ordered data.
type step struct {
	blk  uint32
	data bool
}

type modelTask struct {
	t     *kernel.Task
	n     int    // the open operation's reservation; 0 when idle
	steps []step // its actions still to run
}

// generate runs one seeded sequence of about ops operations on a log of
// nslots slots, over blocks of size bytes, with barriers or without.
func generate(seed int64, nslots uint32, compound, barriers bool, ops, size int) *modelRun {
	rng := rand.New(rand.NewSource(seed))
	sb := layout.Superblock{LogStart: 1, NLog: nslots + 1}
	const nhomes = 6
	nblocks := int(sb.LogStart+sb.NLog) + 1 + nhomes
	k := kernel.New(costmodel.Default())
	disk := &modelDisk{rng: rng, cache: make([][]byte, nblocks), jt: k.NewTask("journal"),
		records: sb.RecordBlocks(), recorded: map[int64]int64{}, listed: map[int64]int64{}}
	r := &modelRun{seed: seed, barriers: barriers, sb: sb, disk: disk, hist: map[uint32][]event{}, returned: map[int64]int64{}}
	for b := range disk.cache {
		disk.cache[b] = make([]byte, size)
		if b > int(sb.LogStart+sb.NLog) {
			r.homes = append(r.homes, uint32(b))
			disk.cache[b] = version(size, uint64(1_000_000+b))
		}
	}
	for _, b := range disk.cache {
		r.initial = append(r.initial, bytes.Clone(b))
	}
	r.policy = journal.PerOp()
	if compound {
		r.policy = journal.Compound(2 + rng.Intn(int(nslots)-2))
	}
	l := journal.New("model", disk, sb, r.policy, barriers)

	tasks := make([]*modelTask, 2+rng.Intn(2))
	for i := range tasks {
		tasks[i] = &modelTask{t: k.NewTask(fmt.Sprintf("t%d", i))}
	}
	var (
		next     uint64 = 1
		reserved int
		open     int
		logged   = map[uint32]bool{} // the running transaction's logged blocks
		written  = map[uint32]bool{} // and its ordered data
		// lastLogged and lastData are the blocks the last commit logged
		// and wrote as ordered data.
		lastLogged, lastData []uint32
	)
	lastDone := func(b uint32) (done int64) {
		for _, w := range disk.writes {
			if w.blk == b {
				done = max(done, w.done)
			}
		}
		return done
	}
	// committed notes a call that may have committed the running
	// transaction.
	committed := func(t *kernel.Task, before int64) {
		if seq := l.Commits(); seq > before {
			r.returned[seq] = t.Clk.NowNS()
			if len(written) > 0 && disk.listed[seq] == 0 {
				r.preflushed++
			}
			lastLogged, lastData = sortedKeys(lastLogged, logged), sortedKeys(lastData, written)
			clear(logged)
			clear(written)
		}
	}
	plan := func(mt *modelTask) bool {
		nmeta := 1 + rng.Intn(3)
		if len(logged)+reserved+nmeta > int(nslots) {
			return false
		}
		now := mt.t.Clk.NowNS()
		var steps []step
		for range nmeta {
			b := r.homes[rng.Intn(len(r.homes))]
			if !written[b] {
				steps = append(steps, step{blk: b})
			}
		}
		if rng.Intn(2) == 0 {
			// Half the operations write ordered data, one in two of
			// them to a block the last commit logged and one in four to
			// a block it wrote as data: while its checkpoint runs, those
			// are the cases the reuse wait and the overwrite wait guard.
			b := r.homes[rng.Intn(len(r.homes))]
			switch c := rng.Intn(4); {
			case c < 2 && len(lastLogged) > 0:
				b = lastLogged[rng.Intn(len(lastLogged))]
			case c == 2 && len(lastData) > 0:
				b = lastData[rng.Intn(len(lastData))]
			}
			if !logged[b] && !slices.ContainsFunc(steps, func(s step) bool { return s.blk == b }) {
				steps = append(steps, step{blk: b, data: true})
			}
		}
		if len(steps) == 0 || steps[0].data {
			return false
		}
		rng.Shuffle(len(steps)-1, func(i, j int) { steps[i+1], steps[j+1] = steps[j+1], steps[i+1] })
		mt.n, mt.steps = nmeta, steps
		for _, s := range steps {
			if !s.data {
				logged[s.blk] = true
				continue
			}
			written[s.blk] = true
		}
		reserved += nmeta
		open++
		l.BeginOp(mt.t, nmeta)
		r.trail = append(r.trail, fmt.Sprintf("%s@%d begin %d %v", mt.t.Name, now, nmeta, steps))
		return true
	}
	run := func(mt *modelTask) {
		t := mt.t
		if len(mt.steps) == 0 {
			var err error
			before := l.Commits()
			l.EndOp(t, mt.n, &err)
			if err != nil {
				panic(err)
			}
			reserved -= mt.n
			open--
			mt.n = 0
			committed(t, before)
			r.trail = append(r.trail, fmt.Sprintf("%s end → %d, commits %d", t.Name, t.Clk.NowNS(), l.Commits()))
			return
		}
		s := mt.steps[0]
		mt.steps = mt.steps[1:]
		v := next
		next++
		if s.data {
			// Wait out a write of the block still in flight, as a file
			// system waits on a buffer's I/O before it reuses it.
			t.Clk.AdvanceTo(lastDone(s.blk))
			l.BeforeData(t, s.blk)
		}
		disk.cache[s.blk] = version(size, v)
		r.hist[s.blk] = append(r.hist[s.blk], event{txn: l.Commits() + 1, data: s.data, v: v})
		if s.data {
			l.OrderData(s.blk, disk.submit(t, s.blk), layout.BlockSum(disk.cache[s.blk]))
			return
		}
		if err := l.Write(t, s.blk); err != nil {
			panic(err)
		}
	}
	for i := 0; i < ops || open > 0; i++ {
		mt := slices.MinFunc(tasks, func(a, b *modelTask) int { return int(a.t.Clk.NowNS() - b.t.Clk.NowNS()) })
		switch {
		case mt.n > 0:
			run(mt)
		case i >= ops:
			mt.t.Clk.AdvanceTo(mt.t.Clk.NowNS() + 1_000_000) // let the open operations end
			continue
		default:
			switch c := rng.Intn(10); {
			case c < 7:
				if !plan(mt) && open == 0 {
					before := l.Commits()
					if err := l.Sync(mt.t); err != nil {
						panic(err)
					}
					committed(mt.t, before)
				}
			case c < 9 && open == 0:
				before := l.Commits()
				var err error
				if c == 7 {
					err = l.Sync(mt.t)
				} else {
					err = l.Drain(mt.t)
				}
				if err != nil {
					panic(err)
				}
				committed(mt.t, before)
				r.trail = append(r.trail, fmt.Sprintf("%s sync → %d, commits %d", mt.t.Name, mt.t.Clk.NowNS(), l.Commits()))
			default:
				mt.t.Clk.AdvanceTo(mt.t.Clk.NowNS() + rng.Int63n(150_000))
			}
		}
		mt.t.Clk.AdvanceTo(mt.t.Clk.NowNS() + rng.Int63n(8_000))
	}
	before := l.Commits()
	if err := l.Drain(tasks[0].t); err != nil {
		panic(err)
	}
	committed(tasks[0].t, before)
	return r
}

// sortedKeys returns the keys of set, sorted, in buf's storage.
func sortedKeys(buf []uint32, set map[uint32]bool) []uint32 {
	buf = buf[:0]
	for b := range set {
		buf = append(buf, b)
	}
	slices.Sort(buf)
	return buf
}

// inLog reports whether blk is in the log region: a record block or a
// log slot.
func (r *modelRun) inLog(blk uint32) bool {
	return blk >= r.sb.LogStart && blk <= r.sb.LogStart+r.sb.NLog
}

// crash returns the device image at instant cut: the writes durable by
// then, and those of the other writes submitted by then that keep says
// survive. With barriers a FLUSH makes a write durable; without them its
// completion does. A block holds its latest surviving write.
func (r *modelRun) crash(cut int64, keep func(i int) bool) [][]byte {
	img := make([][]byte, len(r.initial))
	copy(img, r.initial)
	latest := make([]int64, len(img))
	for i, w := range r.disk.writes {
		if w.at > cut {
			continue
		}
		durable := w.done <= cut
		if r.barriers {
			durable = slices.ContainsFunc(r.disk.flushes, func(f devFlush) bool { return f.done <= cut && w.done <= f.at })
		}
		if (durable || keep(i)) && w.done >= latest[w.blk] {
			img[w.blk], latest[w.blk] = w.data, w.done
		}
	}
	for b := range img {
		img[b] = bytes.Clone(img[b])
	}
	return img
}

// recover runs Recover on a fresh Log over img and returns the image it
// leaves.
func (r *modelRun) recover(img [][]byte) ([][]byte, error) {
	k := kernel.New(costmodel.Default())
	d := &modelDisk{rng: rand.New(rand.NewSource(r.seed)), cache: img, jt: k.NewTask("journal")}
	l := journal.New("recovered", d, r.sb, r.policy, r.barriers)
	err := l.Recover(k.NewTask("mount"))
	return d.cache, err
}

// allowed returns the contents home block b may hold after a crash that
// keeps the committed prefix of transactions 1..j: the block's last write
// in that prefix, logged or ordered data (or its initial contents if it
// has none), and any ordered data a transaction after j wrote in place.
// A committed transaction's data is never stale.
func (r *modelRun) allowed(b uint32, j int64) []uint64 {
	var vs []uint64
	hist := r.hist[b]
	last := len(hist) - 1
	for last >= 0 && hist[last].txn > j {
		if hist[last].data {
			vs = append(vs, hist[last].v)
		}
		last--
	}
	if last >= 0 {
		return append(vs, hist[last].v)
	}
	return append(vs, binary.LittleEndian.Uint64(r.initial[b]))
}

// check reports why the recovered image got is not the state after a
// committed prefix of length lo..hi, or "" when it is one.
func (r *modelRun) check(got [][]byte, lo, hi int64) string {
	for _, rb := range r.sb.RecordBlocks() {
		if _, _, blocks, _ := layout.DecodeCommitRecord(got[rb], r.sb.LogSlots()); len(blocks) > 0 {
			return fmt.Sprintf("record block %d still holds a record of %d blocks", rb, len(blocks))
		}
	}
	var why string
	for j := lo; j <= hi; j++ {
		why = ""
		for _, b := range r.homes {
			v := binary.LittleEndian.Uint64(got[b])
			if want := r.allowed(b, j); !slices.Contains(want, v) {
				why = fmt.Sprintf("block %d holds version %d, want one of %v", b, v, want)
				break
			}
		}
		if why == "" {
			return ""
		}
	}
	return fmt.Sprintf("matches no prefix of %d..%d commits (at %d: %s)", lo, hi, hi, why)
}

// bounds returns lo and hi at instant cut: the last commit whose call
// had returned, and the last whose record had been submitted.
func (r *modelRun) bounds(cut int64) (lo, hi int64) {
	for seq, at := range r.returned {
		if at <= cut {
			lo = max(lo, seq)
		}
	}
	for seq, at := range r.disk.recorded {
		if at <= cut {
			hi = max(hi, seq)
		}
	}
	return lo, hi
}

// verify cuts r at every write's completion, under subsets of the writes
// not yet durable: none, all, the log's or the home blocks' alone, and
// seeded ones. It returns the first failure.
func (r *modelRun) verify() error {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	for _, w := range r.disk.writes {
		cut := w.done
		lo, hi := r.bounds(cut)
		for s := 0; s < 8; s++ {
			mask := rng.Uint64()
			keep := func(i int) bool {
				switch s {
				case 0:
					return false
				case 1:
					return true
				case 2, 3:
					// The write cache keeps the log's writes and loses the
					// home blocks', or the other way round.
					return r.inLog(r.disk.writes[i].blk) == (s == 2)
				}
				x := mask ^ uint64(i)*0x9e3779b97f4a7c15
				x ^= x >> 29
				x *= 0xbf58476d1ce4e5b9
				return x>>40&1 == 1
			}
			got, err := r.recover(r.crash(cut, keep))
			if err != nil {
				return fmt.Errorf("cut at %d ns, subset %d: recovery failed: %v", cut, s, err)
			}
			if why := r.check(got, lo, hi); why != "" {
				return fmt.Errorf("cut at %d ns, subset %d: %s", cut, s, why)
			}
		}
	}
	return nil
}

// TestCrashModel runs seeded sequences under both policies, with
// barriers and, every third sequence, without them, as Bento, the
// C-Kernel and ext4 are published, over logs of four to eight slots, and
// requires every crash image of every one to recover to a committed
// prefix. Every fifth sequence, over four slots, runs on small blocks,
// where some records cannot list their data and make it durable first.
// A failure names the seed and prints the operations.
func TestCrashModel(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	var commits, listing, listingNoBarriers, preflushed int
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		compound, barriers := i%2 == 1, i%3 != 2
		nslots := uint32(4 + i%5)
		size := bigBlock
		if i%5 == 0 {
			size = smallBlock
		}
		r := generate(seed, nslots, compound, barriers, 60, size)
		commits += len(r.disk.recorded)
		for _, m := range r.disk.listed {
			if m > 0 {
				listing++
				if !barriers {
					listingNoBarriers++
				}
			}
		}
		preflushed += r.preflushed
		if err := r.verify(); err != nil {
			t.Fatalf("seed %d, %s, barriers %v, %d slots, %d-byte blocks: %v\n%s",
				seed, policyName(compound), barriers, nslots, size, err, trail(r.trail))
		}
	}
	if commits < 4*n || listing < n || listingNoBarriers == 0 || preflushed == 0 {
		t.Fatalf("%d sequences recorded only %d commits, %d listing data (%d without barriers) and %d making their data durable before the record",
			n, commits, listing, listingNoBarriers, preflushed)
	}
}

// TestCrashModelHasTeeth judges sequences run without barriers by the
// crash rule of a log with them, under which a completed write that no
// FLUSH followed may still be lost. A log that trusts completion is
// wrong there, and the model must fail it under both policies: a model
// that passed it would pass its no-barrier runs whatever recovery did.
func TestCrashModelHasTeeth(t *testing.T) {
	for i := range 2 {
		seed, compound := int64(i+1), i == 1
		r := generate(seed, 4, compound, false, 60, bigBlock)
		r.barriers = true
		if err := r.verify(); err == nil {
			t.Errorf("seed %d, %s, run without barriers: every crash image recovered to a committed prefix under the barrier rule",
				seed, policyName(compound))
		}
	}
}

func policyName(compound bool) string {
	if compound {
		return "Compound"
	}
	return "PerOp"
}

// trail renders the last operations of a sequence.
func trail(ops []string) string {
	var b bytes.Buffer
	for _, op := range ops[max(0, len(ops)-40):] {
		b.WriteString("  " + op + "\n")
	}
	return b.String()
}
