package ext4_test

import (
	"testing"

	"bento/internal/harness"
	"bento/internal/xv6/journaltest"
)

// The data-bypass tests below run on ext4 here, on Bento in bentoimpl's
// tests and on the C-Kernel in vfsimpl's. With the bypass on, ext4 keeps
// its journal's buffer cache metadata-only: writeback-style semantics,
// not data=journal.

var onExt4 = []string{harness.VariantExt4}

func TestExt4DataBypassSingleCopy(t *testing.T) {
	journaltest.Run(t, journaltest.BypassRows(harness.VariantExt4), journaltest.ColdReadPopulatesOnlyPageCache)
}

func TestExt4DataBypassUnalignedCorrectness(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.DataPaths, journaltest.SubBlockWritesAndTruncate)
}

func TestExt4DataBypassDeterministic(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.DataPaths, journaltest.MixedWorkloadDeterministic)
}

func TestExt4PartialTruncateUnmapsTail(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.DataPaths, journaltest.PartialTruncateUnmapsTail)
}

func TestDataBypassWritesNeverEnterBufferCache(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.BypassOn, journaltest.WritesNeverEnterBufferCache)
}

func TestDataBypassFailedWriteRetryMergesZeros(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.BypassOn, journaltest.FailedWriteRetryMergesZeros)
}

func TestDropCachesEmptiesBufferCache(t *testing.T) {
	journaltest.Each(t, onExt4, journaltest.DataPaths, journaltest.DropCachesEmptiesBufferCache)
}

func TestDataBypassLogCarriesNoData(t *testing.T) {
	journaltest.LogCarriesNoData(t, harness.VariantExt4)
}
