package harness

import (
	"testing"
	"time"
)

// TestStreamIncludesBypassStudyRow: with single-copy caching on (the
// default), the streaming scenario publishes a Bento-nobypass study row
// so every run carries the on/off comparison; turning the bypass off
// globally removes the row (it would duplicate Bento).
func TestStreamIncludesBypassStudyRow(t *testing.T) {
	o := Quick()
	o.Duration = 20 * time.Millisecond
	o.MaxOps = 200
	o.StreamMB = 2
	o.StreamThreads = 2

	_, recs, err := RunRecords(ExpStream, o)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, r := range recs {
		seen[r.Variant]++
	}
	if seen[RowBentoNoBypass] == 0 {
		t.Fatalf("no %s study row in stream records: %v", RowBentoNoBypass, seen)
	}
	if seen[RowBentoNoBypass] != seen[VariantBento] {
		t.Fatalf("study row has %d cells, Bento has %d — rows out of step",
			seen[RowBentoNoBypass], seen[VariantBento])
	}

	o.NoDataBypass = true
	_, recs, err = RunRecords(ExpStream, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Variant == RowBentoNoBypass {
			t.Fatalf("bypass globally off, but study row still present")
		}
	}
}

// TestNewTargetBypassVariants: Bento mounts and serves I/O with the
// bypass on and — the study row's configuration — with it off.
func TestNewTargetBypassVariants(t *testing.T) {
	for _, noBypass := range []bool{false, true} {
		o := Quick()
		o.NoDataBypass = noBypass
		tg, err := NewTarget(VariantBento, o)
		if err != nil {
			t.Fatalf("NewTarget(NoDataBypass=%v): %v", noBypass, err)
		}
		task := tg.K.NewTask("probe")
		if err := tg.M.WriteFile(task, "/probe", []byte("hello")); err != nil {
			t.Fatalf("NoDataBypass=%v: %v", noBypass, err)
		}
		got, err := tg.M.ReadFile(task, "/probe")
		if err != nil || string(got) != "hello" {
			t.Fatalf("NoDataBypass=%v: read-back %q, %v", noBypass, got, err)
		}
	}
}
