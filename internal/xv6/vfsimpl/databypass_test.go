package vfsimpl_test

import (
	"testing"

	"bento/internal/harness"
	"bento/internal/xv6/journaltest"
)

// The data-bypass tests below run on the C-Kernel here, on Bento in
// bentoimpl's tests and on ext4 in ext4's.

var ckernel = []string{harness.VariantCKernel}

func TestDataBypassColdReadPopulatesOnlyPageCache(t *testing.T) {
	journaltest.Run(t, journaltest.BypassRows(harness.VariantCKernel), journaltest.ColdReadPopulatesOnlyPageCache)
}

func TestDataBypassWritesNeverEnterBufferCache(t *testing.T) {
	journaltest.Each(t, ckernel, journaltest.BypassOn, journaltest.WritesNeverEnterBufferCache)
}

func TestDataBypassSubBlockAndTruncate(t *testing.T) {
	journaltest.Each(t, ckernel, journaltest.DataPaths, journaltest.SubBlockWritesAndTruncate)
}

func TestDataBypassFailedWriteRetryMergesZeros(t *testing.T) {
	journaltest.Each(t, ckernel, journaltest.BypassOn, journaltest.FailedWriteRetryMergesZeros)
}

func TestDropCachesEmptiesBufferCache(t *testing.T) {
	journaltest.Each(t, ckernel, journaltest.DataPaths, journaltest.DropCachesEmptiesBufferCache)
}

func TestDataBypassMixedWorkloadDeterministic(t *testing.T) {
	journaltest.Each(t, ckernel, journaltest.DataPaths, journaltest.MixedWorkloadDeterministic)
}

func TestDataBypassLogCarriesNoData(t *testing.T) {
	journaltest.LogCarriesNoData(t, harness.VariantCKernel)
}
