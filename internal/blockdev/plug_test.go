package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"bento/internal/costmodel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// plugRig is a default-model device with blocks 0..63 written and flushed,
// a recorder attached and its statistics reset, so a test counts only the
// commands it books itself.
func plugRig(t *testing.T, model *costmodel.Model) (*Device, *trace.Recorder) {
	t.Helper()
	d := MustNew(Config{Blocks: 128, Model: model})
	clk := vclock.NewClock()
	for blk := 0; blk < 64; blk++ {
		if _, err := d.Submit(clk, blk, pattern(d, blk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	d.SetRecorder(rec)
	d.ResetStats()
	return d, rec
}

// pattern is block blk's contents in plugRig: every byte differs from
// the neighbouring blocks'.
func pattern(d *Device, blk int) []byte {
	return bytes.Repeat([]byte{byte(blk*7 + 1)}, d.BlockSize())
}

// readAt reads blk on clk with the clock rebased to at — how a fill
// batch issues its reads, all from the batch's submission time — and
// returns the completion.
func readAt(t *testing.T, d *Device, clk *vclock.Clock, at int64, blk int) int64 {
	t.Helper()
	clk.SetNS(at)
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, blk, buf); err != nil {
		t.Fatalf("read of block %d: %v", blk, err)
	}
	if !bytes.Equal(buf, pattern(d, blk)) {
		t.Fatalf("read of block %d returned the wrong bytes", blk)
	}
	return clk.NowNS()
}

// mergedReads returns the (first block, blocks) of every merged-read
// instant in rec.
func mergedReads(rec *trace.Recorder) [][2]int64 {
	var out [][2]int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindInstant && e.Name == "merged-read" {
			out = append(out, [2]int64{e.A, e.B})
		}
	}
	return out
}

// TestPluggedRunIsOneCommand: n contiguous reads issued under a plug from
// one instant book one device command that totals DevRead(n blocks), and
// block k of it completes at the command's start plus DevReadBase plus
// k+1 blocks' transfer time — in order, each after it was asked for. The
// reads stay n reads in Stats and dev_reads; n-1 of them count as merged,
// and the closed command leaves one merged-read instant. The same run read
// synchronously (each read issued at the previous one's completion) is one
// command too.
func TestPluggedRunIsOneCommand(t *testing.T) {
	model := costmodel.Default()
	per := int64(model.DevRead(4096) - model.DevReadBase)
	for _, n := range []int{2, 8, 32} {
		for _, sync := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/sync=%v", n, sync), func(t *testing.T) {
				d, rec := plugRig(t, model)
				clk := vclock.NewClockAt(time.Millisecond)
				at := clk.NowNS()
				d.Plug()
				var done int64
				for k := 0; k < n; k++ {
					issue := at
					if sync {
						issue = clk.NowNS()
					}
					done = readAt(t, d, clk, issue, 10+k)
					if want := at + int64(model.DevReadBase) + int64(k+1)*per; done != want {
						t.Fatalf("block %d of the command completes at %d, want %d", k, done, want)
					}
				}
				d.Unplug()
				if want := at + int64(model.DevRead(n*4096)); done != want {
					t.Fatalf("run of %d completes at %d, want DevRead(%d KiB) after its start = %d", n, done, n*4, want)
				}
				rs := d.ResourceStats()
				if rs.Ops != 1 || rs.BusyTime != model.DevRead(n*4096) {
					t.Fatalf("resource: %d ops busy %v, want 1 op busy %v", rs.Ops, rs.BusyTime, model.DevRead(n*4096))
				}
				if st := d.Stats(); st.Reads != int64(n) || st.BytesRead != int64(n*4096) {
					t.Fatalf("stats %+v, want %d reads", st, n)
				}
				ctr := rec.Counters()
				if ctr["dev_reads"] != int64(n) || ctr["dev_read_merged"] != int64(n-1) {
					t.Fatalf("dev_reads %d, dev_read_merged %d; want %d and %d", ctr["dev_reads"], ctr["dev_read_merged"], n, n-1)
				}
				if got := mergedReads(rec); len(got) != 1 || got[0] != [2]int64{10, int64(n)} {
					t.Fatalf("merged-read instants %v, want one for blocks 10..%d", got, 10+n-1)
				}
			})
		}
	}
}

// TestPlugBreaks: each of these starts a new command — a gap in block
// numbers, an intervening write or FLUSH, a read on another clock, a read
// of the next block after the open command has completed, and a read after
// Unplug — and an unplugged device merges nothing.
func TestPlugBreaks(t *testing.T) {
	model := costmodel.Default()
	one := int64(model.DevRead(4096))
	cases := []struct {
		name    string
		between func(d *Device, a, b *vclock.Clock) // after reading block 10 on a at 0
		clk     func(a, b *vclock.Clock) *vclock.Clock
		blk     int
		at      int64
		cmds    int64 // device commands booked in all, this case's own included
	}{
		{"gap", nil, nil, 12, 0, 2},
		{"write", func(d *Device, a, b *vclock.Clock) {
			if _, err := d.Submit(b, 70, pattern(d, 70)); err != nil {
				t.Fatal(err)
			}
		}, nil, 11, 0, 3},
		{"flush", func(d *Device, a, b *vclock.Clock) {
			if err := d.Flush(b); err != nil {
				t.Fatal(err)
			}
		}, nil, 11, 0, 3},
		{"read on another clock", func(d *Device, a, b *vclock.Clock) {
			if err := d.Read(b, 40, make([]byte, d.BlockSize())); err != nil {
				t.Fatal(err)
			}
		}, nil, 11, 0, 3},
		{"next block on another clock", nil, func(a, b *vclock.Clock) *vclock.Clock { return b }, 11, 0, 2},
		{"after the command completed", nil, nil, 11, one + 1, 2},
		{"after unplug", func(d *Device, a, b *vclock.Clock) { d.Unplug(); d.Plug() }, nil, 11, 0, 2},
		{"no break", nil, nil, 11, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, rec := plugRig(t, model)
			a, b := vclock.NewClock(), vclock.NewClock()
			d.Plug()
			readAt(t, d, a, 0, 10)
			if c.between != nil {
				c.between(d, a, b)
			}
			clk := a
			if c.clk != nil {
				clk = c.clk(a, b)
			}
			done := readAt(t, d, clk, c.at, c.blk)
			d.Unplug()
			if got := d.ResourceStats().Ops; got != c.cmds {
				t.Fatalf("%d device commands, want %d", got, c.cmds)
			}
			merged := rec.Counters()["dev_read_merged"]
			if c.cmds == 1 {
				if merged != 1 || done != int64(model.DevRead(2*4096)) {
					t.Fatalf("joined read: merged %d, completes at %d; want 1 and %d", merged, done, model.DevRead(2*4096))
				}
				return
			}
			if merged != 0 || len(mergedReads(rec)) != 0 {
				t.Fatalf("%d reads merged, instants %v; want none", merged, mergedReads(rec))
			}
		})
	}

	t.Run("unplugged", func(t *testing.T) {
		d, rec := plugRig(t, model)
		clk := vclock.NewClock()
		for blk := 10; blk < 18; blk++ {
			readAt(t, d, clk, 0, blk)
		}
		if ops, merged := d.ResourceStats().Ops, rec.Counters()["dev_read_merged"]; ops != 8 || merged != 0 {
			t.Fatalf("8 unplugged reads: %d commands, %d merged; want 8 and 0", ops, merged)
		}
	})
}

// TestPluggedReadErrorClosesTheRun: an injected read error inside a
// plugged run fails that read with ErrIO and closes the open command: the
// next block starts a command of its own, and the closed command's
// instant covers only the blocks read before the error.
func TestPluggedReadErrorClosesTheRun(t *testing.T) {
	for _, borrow := range []bool{false, true} {
		t.Run(fmt.Sprintf("borrow=%v", borrow), func(t *testing.T) {
			d, rec := plugRig(t, costmodel.Default())
			clk := vclock.NewClock()
			d.Plug()
			readAt(t, d, clk, 0, 10)
			readAt(t, d, clk, 0, 11)
			d.InjectReadError(12)
			clk.SetNS(0)
			var err error
			if borrow {
				_, err = d.Borrow(clk, 12)
			} else {
				err = d.Read(clk, 12, make([]byte, d.BlockSize()))
			}
			if !errors.Is(err, ErrIO) {
				t.Fatalf("plugged read of a bad block = %v, want ErrIO", err)
			}
			d.ClearFaults()
			readAt(t, d, clk, 0, 13)
			d.Unplug()
			if ops := d.ResourceStats().Ops; ops != 2 {
				t.Fatalf("%d commands, want 2: blocks 10-11, then block 13 on its own", ops)
			}
			if got := mergedReads(rec); len(got) != 1 || got[0] != [2]int64{10, 2} {
				t.Fatalf("merged-read instants %v, want one for blocks 10-11", got)
			}
		})
	}
}

// TestPluggedBytesMatchUnplugged: Read and Borrow return the same bytes
// plugged as unplugged — written blocks, never-written ones (zeros; a nil
// view from Borrow) and the boundary between them — whichever of the two
// each block is read with.
func TestPluggedBytesMatchUnplugged(t *testing.T) {
	read := func(plug bool) [][]byte {
		d, _ := plugRig(t, costmodel.Default())
		clk := vclock.NewClock()
		if plug {
			d.Plug()
			defer d.Unplug()
		}
		var out [][]byte
		for blk := 56; blk < 72; blk++ { // 56..63 written, 64..71 never
			clk.SetNS(0)
			if blk%2 == 0 {
				view, err := d.Borrow(clk, blk)
				if err != nil {
					t.Fatal(err)
				}
				if view == nil {
					view = make([]byte, d.BlockSize())
				}
				out = append(out, bytes.Clone(view))
				continue
			}
			buf := bytes.Repeat([]byte{0xEE}, d.BlockSize()) // poison: a read writes every byte
			if err := d.Read(clk, blk, buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf)
		}
		if plug && d.ResourceStats().Ops != 1 {
			t.Fatalf("plugged run of 16 booked %d commands, want 1", d.ResourceStats().Ops)
		}
		return out
	}
	plugged, unplugged := read(true), read(false)
	for i := range plugged {
		if !bytes.Equal(plugged[i], unplugged[i]) {
			t.Fatalf("block %d reads differently plugged and unplugged", 56+i)
		}
	}
}

// TestJoinReadNeedsTheChannelHorizon: the local backend lengthens its
// last read command only while that command is still its channel's last
// booking. A booking that lands on another channel leaves the command
// joinable; one on the same channel (a one-channel device) does not, and
// neither does a stale completion time.
func TestJoinReadNeedsTheChannelHorizon(t *testing.T) {
	for _, channels := range []int{1, 8} {
		model := costmodel.Default()
		model.DevChannels = channels
		lb := NewLocalBackend("x", 4096, model)
		buf := make([]byte, 4096)
		end, _ := lb.ReadBlock(0, 10, buf)
		if _, _, ok := lb.JoinRead(end-1, 11, buf); ok {
			t.Fatalf("%d channels: JoinRead with a stale completion accepted", channels)
		}
		lb.SubmitBlock(0, 40, buf) // another command, at the same instant
		_, done, ok := lb.JoinRead(end, 11, buf)
		if want := channels > 1; ok != want {
			t.Fatalf("%d channels: JoinRead after another booking = %v, want %v", channels, ok, want)
		}
		if ok && done != int64(model.DevRead(2*4096)) {
			t.Fatalf("%d channels: joined read completes at %d, want %d", channels, done, model.DevRead(2*4096))
		}
	}
}

// mergedWrites returns the (first block, blocks) of every merged-write
// instant in rec.
func mergedWrites(rec *trace.Recorder) [][2]int64 {
	var out [][2]int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindInstant && e.Name == "merged-write" {
			out = append(out, [2]int64{e.A, e.B})
		}
	}
	return out
}

// writeAt submits a write of blk (owned or copied) on clk rebased to at —
// how write-back submits a batch, all from one instant — and returns its
// completion.
func writeAt(t *testing.T, d *Device, clk *vclock.Clock, at int64, blk int, owned bool) int64 {
	t.Helper()
	clk.SetNS(at)
	submit := d.Submit
	if owned {
		submit = d.SubmitOwned
	}
	done, err := submit(clk, blk, pattern(d, blk+100))
	if err != nil {
		t.Fatalf("write of block %d: %v", blk, err)
	}
	return done
}

// oneChannel is the default model with a single channel: every channel
// is busy while a command runs, so a plugged write always joins.
func oneChannel() *costmodel.Model {
	m := costmodel.Default()
	m.DevChannels = 1
	return m
}

// TestPluggedWritesJoinOnBusyChannels: while the channels are busy a
// plugged run of contiguous writes joins the open command, and each joined
// block completes exactly DevWrite4K after the block before it. On one
// channel the whole run is one command totalling DevWrite(n blocks). On
// the default eight channels a 32-block write-back chunk issued at one
// instant first fills every channel with one-block commands, then joins
// whenever that completes a block no later than a command of its own
// would: every block completes either DevWrite4K after its predecessor
// (joined) or at what a command of its own would (not), the blocks still
// count as 32 writes, and the chunk completes sooner than unplugged.
func TestPluggedWritesJoinOnBusyChannels(t *testing.T) {
	per := int64(costmodel.Default().DevWrite(4096) - costmodel.Default().DevWriteBase)
	t.Run("one channel", func(t *testing.T) {
		model := oneChannel()
		for _, n := range []int{2, 8, 32} {
			d, rec := plugRig(t, model)
			clk := vclock.NewClock()
			d.Plug()
			var done int64
			for k := 0; k < n; k++ {
				done = writeAt(t, d, clk, 0, 10+k, k%2 == 1)
				if want := int64(model.DevWriteBase) + int64(k+1)*per; done != want {
					t.Fatalf("n=%d: block %d completes at %d, want %d", n, k, done, want)
				}
			}
			d.Unplug()
			rs := d.ResourceStats()
			if rs.Ops != 1 || rs.BusyTime != model.DevWrite(n*4096) || done != int64(model.DevWrite(n*4096)) {
				t.Fatalf("n=%d: %d ops busy %v ending %d, want 1 op of DevWrite(%d KiB) = %v",
					n, rs.Ops, rs.BusyTime, done, n*4, model.DevWrite(n*4096))
			}
			ctr := rec.Counters()
			if st := d.Stats(); st.Writes != int64(n) || ctr["dev_writes"] != int64(n) || ctr["dev_write_merged"] != int64(n-1) {
				t.Fatalf("n=%d: %d writes, dev_writes %d, dev_write_merged %d; want %d, %d, %d",
					n, st.Writes, ctr["dev_writes"], ctr["dev_write_merged"], n, n, n-1)
			}
			if got := mergedWrites(rec); len(got) != 1 || got[0] != [2]int64{10, int64(n)} {
				t.Fatalf("n=%d: merged-write instants %v, want one for blocks 10..%d", n, got, 10+n-1)
			}
		}
	})
	t.Run("eight channels", func(t *testing.T) {
		model := costmodel.Default()
		chunk := func(plug bool) (dones []int64, joined []bool, d *Device, rec *trace.Recorder) {
			d, rec = plugRig(t, model)
			lb := d.Backend().(*localBackend)
			clk := vclock.NewClock()
			if plug {
				d.Plug()
			}
			for k := 0; k < 32; k++ {
				solo := lb.res.Peek(0, int64(model.DevWrite(4096)))
				merged := rec.Counters()["dev_write_merged"]
				dones = append(dones, writeAt(t, d, clk, 0, 10+k, true))
				joined = append(joined, rec.Counters()["dev_write_merged"] > merged)
				if !joined[k] && dones[k] != solo {
					t.Fatalf("plug=%v: block %d on its own completes at %d, want %d", plug, k, dones[k], solo)
				}
			}
			if plug {
				d.Unplug()
			}
			return dones, joined, d, rec
		}
		dones, joined, d, rec := chunk(true)
		var n int64
		for k, j := range joined {
			if !j {
				continue
			}
			n++
			if k == 0 || dones[k] != dones[k-1]+per {
				t.Fatalf("joined block %d completes at %d, want DevWrite4K after block %d", k, dones[k], k-1)
			}
		}
		ops := d.ResourceStats().Ops
		if n == 0 || ops+n != 32 || d.Stats().Writes != 32 || rec.Counters()["dev_writes"] != 32 {
			t.Fatalf("%d blocks joined in %d commands, %d writes counted; want some joined and 32 writes", n, ops, d.Stats().Writes)
		}
		for k := 0; k < 8; k++ {
			if joined[k] {
				t.Fatalf("block %d joined while a channel was idle", k)
			}
		}
		plugEnd := slices.Max(dones)
		unplugged, _, _, _ := chunk(false)
		if unEnd := slices.Max(unplugged); plugEnd >= unEnd {
			t.Fatalf("plugged chunk completes at %d, unplugged at %d: no sooner", plugEnd, unEnd)
		}
	})
}

// TestIdleDeviceWritesStayOneBlockCommands: on an idle eight-channel
// device a plugged run of two or three writes is two or three one-block
// commands in parallel, each completing at DevWrite(4 KiB): joining would
// finish the second block later than a channel of its own does.
func TestIdleDeviceWritesStayOneBlockCommands(t *testing.T) {
	model := costmodel.Default()
	for _, n := range []int{2, 3} {
		d, rec := plugRig(t, model)
		clk := vclock.NewClock()
		d.Plug()
		for k := 0; k < n; k++ {
			if done := writeAt(t, d, clk, 0, 10+k, false); done != int64(model.DevWrite(4096)) {
				t.Fatalf("n=%d: block %d completes at %d, want %d", n, k, done, model.DevWrite(4096))
			}
		}
		d.Unplug()
		if ops, merged := d.ResourceStats().Ops, rec.Counters()["dev_write_merged"]; ops != int64(n) || merged != 0 || len(mergedWrites(rec)) != 0 {
			t.Fatalf("n=%d: %d commands, %d merged; want %d and none", n, ops, merged, n)
		}
	}
}

// TestPluggedWriteRunCloses: on one channel, where a plugged write always
// joins, each of these closes the open write command, so the next block
// starts a command of its own: a write that fails with an injected ErrIO
// (rewritten once the fault is cleared), a FLUSH, Unplug and Crash — and
// a read of the next block, which joins no write. Without a break the
// same block joins.
func TestPluggedWriteRunCloses(t *testing.T) {
	cases := []struct {
		name    string
		between func(t *testing.T, d *Device, clk *vclock.Clock)
		cmds    int64 // commands booked by the two writes around the break
	}{
		{"no break", nil, 1},
		{"write error", func(t *testing.T, d *Device, clk *vclock.Clock) {
			d.InjectWriteError(12)
			if _, err := d.Submit(clk, 12, pattern(d, 12)); !errors.Is(err, ErrIO) {
				t.Fatalf("write of a bad block = %v, want ErrIO", err)
			}
			d.ClearFaults()
		}, 2},
		{"flush", func(t *testing.T, d *Device, clk *vclock.Clock) {
			if err := d.Flush(vclock.NewClock()); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"unplug", func(t *testing.T, d *Device, clk *vclock.Clock) { d.Unplug(); d.Plug() }, 2},
		{"crash", func(t *testing.T, d *Device, clk *vclock.Clock) { d.Crash(1, 0) }, 1},
		{"read", func(t *testing.T, d *Device, clk *vclock.Clock) {
			if err := d.Read(clk, 40, make([]byte, d.BlockSize())); err != nil {
				t.Fatal(err)
			}
		}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, rec := plugRig(t, oneChannel())
			clk := vclock.NewClock()
			d.Plug()
			writeAt(t, d, clk, 0, 10, false)
			writeAt(t, d, clk, 0, 11, true)
			if c.between != nil {
				c.between(t, d, clk)
			}
			writeAt(t, d, clk, 0, 12, false)
			d.Unplug()
			// Crash resets the queue's statistics: its case counts only
			// block 12's own command.
			if got := d.ResourceStats().Ops; got != c.cmds {
				t.Fatalf("%d commands, want %d", got, c.cmds)
			}
			want := [][2]int64{{10, 3}}
			if c.between != nil {
				want = [][2]int64{{10, 2}}
			}
			if got := mergedWrites(rec); !slices.Equal(got, want) {
				t.Fatalf("merged-write instants %v, want %v", got, want)
			}
		})
	}
}

// TestPowerCutInsideAJoinedRun: ArmPowerCut(k) counts every joined block
// as one write, so a cut that lands inside a joined run trips at the same
// block as on an unplugged device — the k-th write is the last to succeed
// — and after Crash(0) the device holds exactly the flushed contents.
func TestPowerCutInsideAJoinedRun(t *testing.T) {
	cut := func(plug bool, k int64) (int, [][]byte) {
		d, _ := plugRig(t, oneChannel())
		clk := vclock.NewClock()
		if plug {
			d.Plug()
		}
		d.ArmPowerCut(k)
		failed := -1
		for i := 0; i < 12; i++ {
			clk.SetNS(0)
			if _, err := d.SubmitOwned(clk, 10+i, pattern(d, 200+i)); err != nil {
				if !errors.Is(err, ErrPowerLoss) {
					t.Fatalf("write %d: %v, want ErrPowerLoss", i, err)
				}
				failed = i
				break
			}
		}
		if plug {
			d.Unplug()
		}
		d.DisarmPowerCut()
		d.Crash(0, 1)
		var out [][]byte
		for blk := 10; blk < 22; blk++ {
			buf := make([]byte, d.BlockSize())
			if err := d.Read(clk, blk, buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf)
		}
		return failed, out
	}
	for k := int64(1); k <= 11; k++ {
		pf, pb := cut(true, k)
		uf, ub := cut(false, k)
		if pf != int(k) || uf != int(k) {
			t.Fatalf("ArmPowerCut(%d): first failed write %d plugged, %d unplugged; want %d", k, pf, uf, k)
		}
		for i := range pb {
			if !bytes.Equal(pb[i], ub[i]) || !bytes.Equal(pb[i], pattern(&Device{blockSize: 4096}, 10+i)) {
				t.Fatalf("ArmPowerCut(%d): block %d after Crash(0) differs from its flushed contents", k, 10+i)
			}
		}
	}
}

// TestPluggedWritesMatchUnplugged: a plugged run of writes — copied and
// owned, over written blocks and never-written ones — leaves the same
// bytes, the same adopted buffers and the same undo log as unplugged: the
// same blocks are dirty, and Crash(0) reverts every one of them to its
// flushed contents or to zeros.
func TestPluggedWritesMatchUnplugged(t *testing.T) {
	type result struct {
		views  [][]byte
		dirty  int
		owned  [][]byte
		undo   []int
		joined int64
	}
	run := func(plug bool) result {
		d, rec := plugRig(t, oneChannel())
		clk := vclock.NewClock()
		if plug {
			d.Plug()
		}
		var r result
		for blk := 56; blk < 72; blk++ { // 56..63 written and flushed, 64..71 never
			buf := pattern(d, blk+100)
			clk.SetNS(0)
			var err error
			if blk%2 == 0 {
				_, err = d.SubmitOwned(clk, blk, buf)
				r.owned = append(r.owned, buf)
			} else {
				_, err = d.Submit(clk, blk, buf)
				buf[0] ^= 0xFF // the device copied it: scribbling changes nothing
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if plug {
			d.Unplug()
		}
		r.joined = rec.Counters()["dev_write_merged"]
		for blk := 56; blk < 72; blk++ {
			view, err := d.Borrow(clk, blk)
			if err != nil {
				t.Fatal(err)
			}
			if blk%2 == 0 && &view[0] != &r.owned[(blk-56)/2][0] {
				t.Fatalf("plug=%v: block %d is not the owned buffer", plug, blk)
			}
			r.views = append(r.views, bytes.Clone(view))
		}
		r.dirty = d.DirtyBlocks()
		for _, u := range d.Backend().(*localBackend).undo {
			r.undo = append(r.undo, u.blk)
		}
		d.Crash(0, 1)
		for blk := 56; blk < 72; blk++ {
			buf := make([]byte, d.BlockSize())
			if err := d.Read(clk, blk, buf); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, d.BlockSize())
			if blk < 64 {
				want = pattern(d, blk)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("plug=%v: block %d after Crash(0) is not its flushed contents", plug, blk)
			}
		}
		return r
	}
	p, u := run(true), run(false)
	if p.joined != 15 || u.joined != 0 {
		t.Fatalf("%d blocks joined plugged, %d unplugged; want 15 and 0", p.joined, u.joined)
	}
	for i := range p.views {
		if !bytes.Equal(p.views[i], u.views[i]) || !bytes.Equal(p.views[i], pattern(&Device{blockSize: 4096}, 156+i)) {
			t.Fatalf("block %d reads differently plugged and unplugged", 56+i)
		}
	}
	if p.dirty != u.dirty || p.dirty != 16 || !slices.Equal(p.undo, u.undo) {
		t.Fatalf("dirty %d plugged, %d unplugged; undo log %v and %v", p.dirty, u.dirty, p.undo, u.undo)
	}
}

// TestJoinWriteRules: the local backend lengthens its last write command
// only while that command is its channel's last booking, never with a
// stale completion, and only when the lengthened command completes the
// block no later than a one-block command booked at now would.
func TestJoinWriteRules(t *testing.T) {
	model := costmodel.Default()
	one, per := int64(model.DevWrite(4096)), int64(model.DevWrite(4096)-model.DevWriteBase)
	buf := make([]byte, 4096)
	lb := NewLocalBackend("x", 4096, model).(*localBackend)
	end, _ := lb.SubmitBlock(0, 10, buf)
	if _, ok := lb.JoinWrite(end, 0, 11, buf, false); ok {
		t.Fatal("JoinWrite on an idle device accepted: a channel of its own completes sooner")
	}
	for blk := 20; blk < 27; blk++ { // the other seven channels busy until one
		lb.SubmitBlock(0, blk, buf)
	}
	if _, ok := lb.JoinWrite(end-1, 0, 11, buf, false); ok {
		t.Fatal("JoinWrite with a stale completion accepted")
	}
	// A command of its own would start when the first channel frees, at
	// one, and complete at 2*one; joining completes at end+per.
	done, ok := lb.JoinWrite(end, 0, 11, buf, false)
	if !ok || done != end+per || end+per > 2*one {
		t.Fatalf("JoinWrite on busy channels = (%d, %v), want (%d, true)", done, ok, end+per)
	}
	lb1 := NewLocalBackend("y", 4096, oneChannel()).(*localBackend)
	end1, _ := lb1.SubmitBlock(0, 10, buf)
	lb1.SubmitBlock(0, 40, buf) // another command on the only channel
	if _, ok := lb1.JoinWrite(end1, 0, 11, buf, false); ok {
		t.Fatal("JoinWrite after another booking on the command's channel accepted")
	}
}
