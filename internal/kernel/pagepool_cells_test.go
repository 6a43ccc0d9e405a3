package kernel_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// TestPagePoolAcrossCells stresses the process-wide page pool from
// concurrent independent cells (kernel+mount pairs, the unit the
// benchmark harness parallelizes). Each cell churns pages through
// create/write/read/truncate/unlink cycles with a cell-unique pattern
// and verifies every byte it reads back — a page recycled into another
// cell while still referenced would surface as a pattern mismatch here
// and as a data race under -race.
func TestPagePoolAcrossCells(t *testing.T) {
	const cells = 4
	const rounds = 6
	const filePages = 8
	var wg sync.WaitGroup
	errs := make(chan error, cells)
	for c := 0; c < cells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := kernel.New(costmodel.Default())
			if err := k.Register(memfs.Type{}); err != nil {
				errs <- err
				return
			}
			task := k.NewTask(fmt.Sprintf("cell%d", c))
			dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: costmodel.Default()})
			m, err := k.Mount(task, "memfs", "/mnt", dev)
			if err != nil {
				errs <- err
				return
			}
			m.SetPageCacheCap(4) // small cap: force pool churn via eviction
			pattern := bytes.Repeat([]byte{byte(0x11 * (c + 1))}, fsapi.PageSize)
			buf := make([]byte, fsapi.PageSize)
			for r := 0; r < rounds; r++ {
				path := fmt.Sprintf("/f%d", r)
				f, err := m.Open(task, path, fsapi.OCreate|fsapi.ORdwr)
				if err != nil {
					errs <- err
					return
				}
				for p := 0; p < filePages; p++ {
					if _, err := f.PWrite(task, pattern, int64(p)*fsapi.PageSize); err != nil {
						errs <- err
						return
					}
				}
				if err := f.FSync(task); err != nil {
					errs <- err
					return
				}
				m.DropCaches() // release every clean page into the shared pool
				for p := 0; p < filePages; p++ {
					n, err := f.PRead(task, buf, int64(p)*fsapi.PageSize)
					if err != nil || n != fsapi.PageSize {
						errs <- fmt.Errorf("cell %d: PRead = %d, %v", c, n, err)
						return
					}
					if !bytes.Equal(buf, pattern) {
						errs <- fmt.Errorf("cell %d round %d page %d: cross-cell data leak", c, r, p)
						return
					}
				}
				if err := m.Close(task, f); err != nil {
					errs <- err
					return
				}
				if err := m.Unlink(task, path); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
