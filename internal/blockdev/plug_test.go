package blockdev

import (
	"bytes"
	"errors"
	"fmt"
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
