package main

import (
	"strings"
	"testing"
	"time"
)

// ok builds an otherwise-valid flag set around the backend and net
// flags under test.
func ok(backend string, f cliFlags) cliFlags {
	f.exp, f.parallel, f.backend = "all", 1, backend
	return f
}

func TestValidateFlagsBackend(t *testing.T) {
	if err := validateFlags(ok("local", cliFlags{})); err != nil {
		t.Fatalf("local backend: %v", err)
	}
	if err := validateFlags(ok("netstore", cliFlags{})); err != nil {
		t.Fatalf("netstore backend: %v", err)
	}
	err := validateFlags(ok("nfs", cliFlags{}))
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range []string{"nfs", "local", "netstore"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-backend error %q does not mention %q", err, want)
		}
	}
}

// TestValidateFlagsFaultsRequireNetstore: every flag that only the
// object-store backend reads — the fault model's and the latency
// spec's — is rejected on the local backend instead of being ignored.
func TestValidateFlagsFaultsRequireNetstore(t *testing.T) {
	cases := []struct {
		name string
		set  cliFlags
	}{
		{name: "neterr", set: cliFlags{neterr: 0.02}},
		{name: "nettail", set: cliFlags{nettail: 4}},
		{name: "netlat", set: cliFlags{netlat: 5 * time.Millisecond}},
		{name: "netbw", set: cliFlags{netbw: 100}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(ok("local", c.set))
			if err == nil {
				t.Fatalf("-%s with -backend local accepted", c.name)
			}
			if !strings.Contains(err.Error(), "netstore") {
				t.Fatalf("error %q does not point at -backend netstore", err)
			}
			if err := validateFlags(ok("netstore", c.set)); err != nil {
				t.Fatalf("-%s with -backend netstore rejected: %v", c.name, err)
			}
		})
	}
}

func TestValidateFlagsErrProbRange(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		if err := validateFlags(ok("netstore", cliFlags{neterr: bad})); err == nil {
			t.Errorf("-neterr %v accepted", bad)
		}
	}
}

// TestValidateFlagsRejectsIgnoredValues: values that used to fall
// through silently — a worker count below one, negative durations,
// rates and multipliers — are each rejected, naming the flag.
func TestValidateFlagsRejectsIgnoredValues(t *testing.T) {
	base := cliFlags{exp: "all", parallel: 4, dur: 200 * time.Millisecond, backend: "netstore", netlat: 5 * time.Millisecond, netbw: 100, nettail: 4}
	if err := validateFlags(base); err != nil {
		t.Fatalf("valid flag set rejected: %v", err)
	}
	cases := []struct {
		flag string
		set  func(*cliFlags)
	}{
		{"-parallel", func(f *cliFlags) { f.parallel = 0 }},
		{"-parallel", func(f *cliFlags) { f.parallel = -3 }},
		{"-dur", func(f *cliFlags) { f.dur = -5 * time.Second }},
		{"-netlat", func(f *cliFlags) { f.netlat = -time.Millisecond }},
		{"-netbw", func(f *cliFlags) { f.netbw = -5 }},
		{"-nettail", func(f *cliFlags) { f.nettail = -2 }},
	}
	for _, c := range cases {
		f := base
		c.set(&f)
		err := validateFlags(f)
		if err == nil {
			t.Errorf("%s: %+v accepted", c.flag, f)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: error %q does not lead with the flag", c.flag, err)
		}
	}
	// Zero still means "default" everywhere it did.
	for _, f := range []cliFlags{
		{exp: "all", parallel: 1, backend: "local"},
		{exp: "upgrade", parallel: 1, backend: "local"},
	} {
		if err := validateFlags(f); err != nil {
			t.Errorf("%+v rejected: %v", f, err)
		}
	}
}
