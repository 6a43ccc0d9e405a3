package blockdev_test

import (
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/storagetest"
)

// TestLocalBackendConformance runs the shared backend conformance suite
// against the default local backend, constructed the explicit way (via
// Config.Backend) so the suite exercises the same wiring path remote
// backends use.
func TestLocalBackendConformance(t *testing.T) {
	storagetest.Run(t, func(blocks int) *blockdev.Device {
		model := costmodel.Default()
		return blockdev.MustNew(blockdev.Config{
			Name:    "conf0",
			Blocks:  blocks,
			Model:   model,
			Backend: blockdev.NewLocalBackend("conf0", 4096, model),
		})
	})
}

// TestDefaultBackendConformance runs the suite against a Device built
// with a nil Config.Backend — the implicit local path every existing
// call site uses.
func TestDefaultBackendConformance(t *testing.T) {
	storagetest.Run(t, func(blocks int) *blockdev.Device {
		return blockdev.MustNew(blockdev.Config{Blocks: blocks, Model: costmodel.Default()})
	})
}
