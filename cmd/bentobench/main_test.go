package main

import (
	"strings"
	"testing"
	"time"
)

// ok builds an otherwise-valid flag set around the backend and fault
// flags under test.
func ok(backend string, neterr float64, nettail int, netoutage string, nethedge int) cliFlags {
	return cliFlags{parallel: 1, backend: backend, neterr: neterr, nettail: nettail, netoutage: netoutage, nethedge: nethedge}
}

func TestValidateFlagsBackend(t *testing.T) {
	if _, _, err := validateFlags(ok("local", 0, 0, "", 0)); err != nil {
		t.Fatalf("local backend: %v", err)
	}
	if _, _, err := validateFlags(ok("netstore", 0, 0, "", 0)); err != nil {
		t.Fatalf("netstore backend: %v", err)
	}
	_, _, err := validateFlags(ok("nfs", 0, 0, "", 0))
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range []string{"nfs", "local", "netstore"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-backend error %q does not mention %q", err, want)
		}
	}
}

func TestValidateFlagsFaultsRequireNetstore(t *testing.T) {
	cases := []struct {
		name      string
		neterr    float64
		nettail   int
		netoutage string
		nethedge  int
	}{
		{name: "neterr", neterr: 0.02},
		{name: "nettail", nettail: 4},
		{name: "netoutage", netoutage: "10ms:30ms"},
		{name: "nethedge", nethedge: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := validateFlags(ok("local", c.neterr, c.nettail, c.netoutage, c.nethedge))
			if err == nil {
				t.Fatalf("-%s with -backend local accepted", c.name)
			}
			if !strings.Contains(err.Error(), "netstore") {
				t.Fatalf("error %q does not point at -backend netstore", err)
			}
			if _, _, err := validateFlags(ok("netstore", c.neterr, c.nettail, c.netoutage, c.nethedge)); err != nil {
				t.Fatalf("-%s with -backend netstore rejected: %v", c.name, err)
			}
		})
	}
}

func TestValidateFlagsOutageWindow(t *testing.T) {
	s, e, err := validateFlags(ok("netstore", 0, 0, "10ms:30ms", 0))
	if err != nil {
		t.Fatal(err)
	}
	if s != 10*time.Millisecond || e != 30*time.Millisecond {
		t.Fatalf("parsed window [%v, %v), want [10ms, 30ms)", s, e)
	}
	for _, bad := range []string{"10ms", "x:30ms", "10ms:y", "30ms:10ms", "10ms:10ms"} {
		if _, _, err := validateFlags(ok("netstore", 0, 0, bad, 0)); err == nil {
			t.Errorf("-netoutage %q accepted", bad)
		}
	}
}

func TestValidateFlagsErrProbRange(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		if _, _, err := validateFlags(ok("netstore", bad, 0, "", 0)); err == nil {
			t.Errorf("-neterr %v accepted", bad)
		}
	}
}

// TestValidateFlagsRejectsIgnoredValues: values that used to fall
// through silently — a worker count below one, negative durations,
// rates and multipliers — are each rejected, naming the flag.
func TestValidateFlagsRejectsIgnoredValues(t *testing.T) {
	base := cliFlags{parallel: 4, dur: 200 * time.Millisecond, backend: "netstore", netlat: 5 * time.Millisecond, netbw: 100, nettail: 4, nethedge: 3}
	if _, _, err := validateFlags(base); err != nil {
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
		{"-nethedge", func(f *cliFlags) { f.nethedge = -1 }},
	}
	for _, c := range cases {
		f := base
		c.set(&f)
		_, _, err := validateFlags(f)
		if err == nil {
			t.Errorf("%s: %+v accepted", c.flag, f)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: error %q does not lead with the flag", c.flag, err)
		}
	}
	// Zero still means "default" everywhere it did.
	if _, _, err := validateFlags(cliFlags{parallel: 1, backend: "local"}); err != nil {
		t.Fatalf("all-defaults flag set rejected: %v", err)
	}
}
