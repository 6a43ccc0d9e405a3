package main

import (
	"math"
	"strings"
	"testing"
)

// TestValidateFlags: the defaults and the extremes an image can carry
// pass; a block count that is not positive, and a count that would be
// truncated to 32 bits, fail naming the flag at fault.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		blocks  int
		ninodes uint
		want    string // "" accepts; else the error's leading flag
	}{
		{65536, 4096, ""},
		{1, 0, ""}, // layout.Mkfs, not the flag check, rejects these
		{math.MaxUint32, math.MaxUint32, ""},
		{0, 4096, "-blocks 0"},
		{-1, 4096, "-blocks -1"},
		{math.MaxUint32 + 1, 4096, "-blocks 4294967296"},
		{65536, math.MaxUint32 + 1, "-ninodes 4294967296"},
	} {
		err := validateFlags(tc.blocks, tc.ninodes)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("-blocks %d -ninodes %d rejected: %v", tc.blocks, tc.ninodes, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("-blocks %d -ninodes %d: error %v, want one leading with %q", tc.blocks, tc.ninodes, err, tc.want)
		}
	}
}
