package harness

import (
	"testing"
	"time"
)

// TestStreamIncludesBypassStudyRow: the streaming scenario publishes a
// Bento-nobypass study row, cell for cell beside Bento, so every run
// carries the on/off comparison.
func TestStreamIncludesBypassStudyRow(t *testing.T) {
	o := Quick()
	o.Duration = 20 * time.Millisecond
	o.MaxOps = 200
	o.StreamMB = 2

	_, recs := runExp(t, ExpStream, o)
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
}

// TestNewTargetBypassVariants: Bento mounts and serves I/O with the
// bypass on and — the study row's configuration — with it off.
func TestNewTargetBypassVariants(t *testing.T) {
	for _, noBypass := range []bool{false, true} {
		o := Quick()
		o.noBypass = noBypass
		tg, err := NewTarget(VariantBento, o)
		if err != nil {
			t.Fatalf("NewTarget(noBypass=%v): %v", noBypass, err)
		}
		task := tg.K.NewTask("probe")
		if err := tg.M.WriteFile(task, "/probe", []byte("hello")); err != nil {
			t.Fatalf("noBypass=%v: %v", noBypass, err)
		}
		got, err := tg.M.ReadFile(task, "/probe")
		if err != nil || string(got) != "hello" {
			t.Fatalf("noBypass=%v: read-back %q, %v", noBypass, got, err)
		}
	}
}
