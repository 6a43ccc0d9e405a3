package bento

import (
	"bytes"
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
