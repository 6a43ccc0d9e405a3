package bento

import (
	"bytes"
	"reflect"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// TestReadPageFillsEveryByte holds kernel.FileSystem's ReadPage contract
// — every byte of buf is written, or an error is returned — on every
// implementation: core.BentoFS over bentoimpl, vfsimpl, ext4, the FUSE
// driver and memfs. The page cache hands ReadPage recycled pages without
// clearing them, so a byte ReadPage leaves alone is a byte of some other
// file. Each case poisons the buffer first.
func TestReadPageFillsEveryByte(t *testing.T) {
	mounts := map[string]func(t *testing.T) (*kernel.Kernel, *kernel.Mount){
		"memfs": func(t *testing.T) (*kernel.Kernel, *kernel.Mount) {
			k := kernel.New(costmodel.Fast())
			if err := k.Register(memfs.Type{}); err != nil {
				t.Fatal(err)
			}
			dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Fast()})
			m, err := k.Mount(k.NewTask("mount"), "memfs", "/", dev)
			if err != nil {
				t.Fatal(err)
			}
			return k, m
		},
	}
	for _, v := range allocVariants {
		mounts[v] = func(t *testing.T) (*kernel.Kernel, *kernel.Mount) {
			tgt, err := harness.NewTarget(v, harness.Quick())
			if err != nil {
				t.Fatal(err)
			}
			return tgt.K, tgt.M
		}
	}

	const ps = fsapi.PageSize
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%251 + 1) // never zero, never the poison
		}
		return b
	}
	// Pages 0-1 are full, pages 2-3 a hole, page 4 full, and page 5 holds
	// the file's last 100 bytes: the file system's size is 5 pages + 100.
	// The kernel's is 12 pages and a byte, from an extension that is never
	// written back.
	head, tail := pattern(2*ps), pattern(ps+100)
	cases := []struct {
		name string
		idx  int64
		want []byte
	}{
		{"full interior page", 1, head[ps:]},
		{"hole", 3, make([]byte, ps)},
		{"full page after the hole", 4, tail[:ps]},
		{"short tail page at EOF", 5, append(append([]byte{}, tail[ps:]...), make([]byte, ps-100)...)},
		{"below the kernel's size, beyond the file system's", 9, make([]byte, ps)},
	}

	for name, mount := range mounts {
		t.Run(name, func(t *testing.T) {
			k, m := mount(t)
			task := k.NewTask("readpage")
			f, err := m.Open(task, "/f", fsapi.OCreate|fsapi.ORdwr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.PWrite(task, head, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.PWrite(task, tail, 4*ps); err != nil {
				t.Fatal(err)
			}
			if err := f.FSync(task); err != nil {
				t.Fatal(err)
			}
			if _, err := f.PWrite(task, []byte{1}, 12*ps); err != nil {
				t.Fatal(err)
			}
			st, err := m.Stat(task, "/f")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, ps)
			for _, c := range cases {
				for i := range buf {
					buf[i] = 0xA5
				}
				if err := m.FS().ReadPage(task, st.Ino, c.idx, buf); err != nil {
					t.Errorf("%s: ReadPage(%d): %v", c.name, c.idx, err)
					continue
				}
				if !bytes.Equal(buf, c.want) {
					i := 0
					for buf[i] == c.want[i] {
						i++
					}
					t.Errorf("%s: ReadPage(%d) byte %d = %#x, want %#x", c.name, c.idx, i, buf[i], c.want[i])
				}
			}
		})
	}
}

// TestLendPageMatchesReadPage holds kernel.PageLender's contract on every
// implementation (core.BentoFS over bentoimpl, vfsimpl, ext4, and the FUSE
// driver, whose daemon lends from its userspace disk), on both storage
// backends: LendPage returns nil — and has then consumed nothing — or
// exactly the PageSize bytes ReadPage writes, at the same virtual instant,
// with the same counters and the same trace events. Two identical traced
// targets are built side by side; one fills each page through ReadPage,
// the other through LendPage with the fallback the page cache uses, and
// the two must stay indistinguishable. The file has full pages, a hole, a
// sub-page (and so sub-block) tail, and a page whose tail a truncate
// cleared before the file grew again; the caches are dropped first, so
// the block map is read from the device on the way. Lent views are kept
// and checked once more at the end, after the file has been overwritten,
// truncated and removed.
func TestLendPageMatchesReadPage(t *testing.T) {
	const ps = fsapi.PageSize
	pattern := func(n int, salt byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i%251+1) ^ salt
		}
		return b
	}
	type side struct {
		k    *kernel.Kernel
		m    *kernel.Mount
		task *kernel.Task
		f    *kernel.File
		ino  fsapi.Ino
	}
	// Pages 0-1 full; 2-3 a hole; page 4: its first 1000 bytes, the rest
	// cleared by a truncate; page 5: written, then freed by that truncate
	// and left a hole by the regrow, so it reads as zeros; pages 6-19 full
	// (past the inode's direct blocks, so bmap reads an indirect block);
	// page 20: the last 100 bytes. The kernel's size is larger still, from
	// a byte that is never written back.
	build := func(t *testing.T, variant, backend string) *side {
		o := harness.Quick()
		o.Metrics = true
		o.Backend = backend
		tgt, err := harness.NewTarget(variant, o)
		if err != nil {
			t.Fatal(err)
		}
		s := &side{k: tgt.K, m: tgt.M, task: tgt.K.NewTask("fill")}
		if s.f, err = s.m.Open(s.task, "/f", fsapi.OCreate|fsapi.ORdwr); err != nil {
			t.Fatal(err)
		}
		must := func(_ int, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(s.f.PWrite(s.task, pattern(2*ps, 0), 0))
		must(s.f.PWrite(s.task, pattern(ps+3000, 0x40), 4*ps))
		must(0, s.f.FSync(s.task))
		must(0, s.f.Truncate(s.task, 4*ps+1000))
		must(s.f.PWrite(s.task, pattern(14*ps+100, 0x80), 6*ps))
		must(0, s.f.FSync(s.task))
		must(s.f.PWrite(s.task, []byte{1}, 30*ps))
		s.m.DropCaches()
		st, err := s.m.Stat(s.task, "/f")
		if err != nil {
			t.Fatal(err)
		}
		s.ino = st.Ino
		return s
	}
	pages := []int64{0, 1, 2, 3, 4, 5, 6, 13, 19, 20, 21, 25}
	lendable := map[int64]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 13: true, 19: true}

	for _, variant := range allocVariants {
		t.Run(variant, func(t *testing.T) {
			for _, backend := range harness.Backends {
				t.Run(backend, func(t *testing.T) {
					copied, lent := build(t, variant, backend), build(t, variant, backend)
					lender, ok := lent.m.FS().(kernel.PageLender)
					if !ok {
						t.Fatalf("%s does not lend pages", variant)
					}
					type kept struct {
						idx  int64
						view []byte
						want []byte
					}
					var views []kept
					buf, other := make([]byte, ps), make([]byte, ps)
					for _, idx := range pages {
						for i := range buf {
							buf[i], other[i] = 0xA5, 0x5A
						}
						if err := copied.m.FS().ReadPage(copied.task, copied.ino, idx, buf); err != nil {
							t.Fatalf("ReadPage(%d): %v", idx, err)
						}
						before := lent.task.Clk.NowNS()
						events := len(lent.k.Recorder().Events())
						view, err := lender.LendPage(lent.task, lent.ino, idx)
						if err != nil {
							t.Fatalf("LendPage(%d): %v", idx, err)
						}
						if (view != nil) != lendable[idx] {
							t.Errorf("page %d: lent=%v, want %v", idx, view != nil, lendable[idx])
						}
						if view == nil {
							if now := lent.task.Clk.NowNS(); now != before || len(lent.k.Recorder().Events()) != events {
								t.Fatalf("page %d: a refused LendPage consumed %d ns and recorded %d events", idx, now-before, len(lent.k.Recorder().Events())-events)
							}
							if err := lent.m.FS().ReadPage(lent.task, lent.ino, idx, other); err != nil {
								t.Fatalf("ReadPage(%d) after a refused LendPage: %v", idx, err)
							}
							view = other
						} else {
							if len(view) != ps {
								t.Fatalf("page %d lent as %d bytes", idx, len(view))
							}
							views = append(views, kept{idx, view, bytes.Clone(view)})
						}
						if !bytes.Equal(view, buf) {
							t.Errorf("page %d: LendPage and ReadPage disagree", idx)
						}
						if idx == 5 && !bytes.Equal(buf, make([]byte, ps)) {
							t.Errorf("page 5, freed by the truncate, does not read as zeros")
						}
						if a, b := copied.task.Clk.NowNS(), lent.task.Clk.NowNS(); a != b {
							t.Fatalf("page %d: clock %d after ReadPage, %d after LendPage", idx, a, b)
						}
						if a, b := copied.k.Recorder().Counters(), lent.k.Recorder().Counters(); !reflect.DeepEqual(a, b) {
							t.Fatalf("page %d: counters differ:\nReadPage %v\nLendPage %v", idx, a, b)
						}
						if a, b := copied.k.Recorder().Events(), lent.k.Recorder().Events(); !reflect.DeepEqual(a, b) {
							t.Fatalf("page %d: trace events differ (%d after ReadPage, %d after LendPage)", idx, len(a), len(b))
						}
					}
					// A view is the caller's for as long as it holds it.
					s := lent
					if _, err := s.f.PWrite(s.task, pattern(21*ps, 0xFF), 0); err != nil {
						t.Fatal(err)
					}
					if err := s.f.FSync(s.task); err != nil {
						t.Fatal(err)
					}
					if err := s.f.Truncate(s.task, 0); err != nil {
						t.Fatal(err)
					}
					if err := s.m.Close(s.task, s.f); err != nil {
						t.Fatal(err)
					}
					if err := s.m.Unlink(s.task, "/f"); err != nil {
						t.Fatal(err)
					}
					if err := s.m.WriteFile(s.task, "/g", pattern(24*ps, 0x33)); err != nil {
						t.Fatal(err)
					}
					if err := s.m.Sync(s.task); err != nil {
						t.Fatal(err)
					}
					for _, v := range views {
						if !bytes.Equal(v.view, v.want) {
							t.Errorf("the view of page %d changed after it was lent", v.idx)
						}
					}
				})
			}
		})
	}
}
