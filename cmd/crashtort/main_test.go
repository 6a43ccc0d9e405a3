package main

import (
	"strings"
	"testing"
)

// TestValidateFlags: every flag combination that used to be mislabelled
// or silently ignored fails, naming the flag at fault; the combinations
// CI and the usage comment run stay valid.
func TestValidateFlags(t *testing.T) {
	sweep := cliFlags{variant: "all", keep: -1}
	with := func(set func(*cliFlags)) cliFlags {
		f := sweep
		set(&f)
		return f
	}
	for _, f := range []cliFlags{
		sweep,
		with(func(f *cliFlags) { f.variant = "bento" }),
		with(func(f *cliFlags) { f.variant = "fuse" }),
		with(func(f *cliFlags) { f.keep = 0 }),
		with(func(f *cliFlags) { f.keep = 1 }),
		with(func(f *cliFlags) { f.keep = 0.25 }),
		with(func(f *cliFlags) { f.nobarriers, f.md = true, true }),
		with(func(f *cliFlags) { f.point = "bento/k=17/keep=0" }),
		with(func(f *cliFlags) { f.point = "fuse/k=17/keep=1" }),
		with(func(f *cliFlags) { f.selftest = true }),
	} {
		if err := validateFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
	for _, tc := range []struct {
		name string
		f    cliFlags
		want string // the error's leading flag, then a word it must mention
	}{
		{"keep above 1", with(func(f *cliFlags) { f.keep = 7 }), "-keep 7"},
		{"keep below 0", with(func(f *cliFlags) { f.keep = -0.5 }), "-keep -0.5"},
		{"unknown variant", with(func(f *cliFlags) { f.variant = "zfs" }), `-variant "zfs"`},
		{"point with variant", with(func(f *cliFlags) { f.point, f.variant = "bento/k=1/keep=0", "vfs" }), "-point|-variant"},
		{"point with keep", with(func(f *cliFlags) { f.point, f.keep = "bento/k=1/keep=0", 1 }), "-point|-keep"},
		{"point with nobarriers", with(func(f *cliFlags) { f.point, f.nobarriers = "bento/k=1/keep=0", true }), "-point|-nobarriers"},
		{"point with selftest", with(func(f *cliFlags) { f.point, f.selftest = "bento/k=1/keep=0", true }), "-point|-selftest"},
		{"point with md", with(func(f *cliFlags) { f.point, f.md = "bento/k=1/keep=0", true }), "-point|-md"},
		{"selftest with variant", with(func(f *cliFlags) { f.selftest, f.variant = true, "ext4" }), "-selftest|-variant"},
		{"selftest with keep", with(func(f *cliFlags) { f.selftest, f.keep = true, 0 }), "-selftest|-keep"},
		{"selftest with nobarriers", with(func(f *cliFlags) { f.selftest, f.nobarriers = true, true }), "-selftest|-nobarriers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.f)
			if err == nil {
				t.Fatalf("%+v accepted", tc.f)
			}
			lead, mention, _ := strings.Cut(tc.want, "|")
			if !strings.HasPrefix(err.Error(), lead) || !strings.Contains(err.Error(), mention) {
				t.Fatalf("error %q: want it to lead with %q and mention %q", err, lead, mention)
			}
		})
	}
}
