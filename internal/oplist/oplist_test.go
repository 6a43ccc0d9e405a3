package oplist

import (
	"strings"
	"testing"
)

// TestParseRoundTrip: every op of 100 generated lists prints and parses
// back to itself, and so does each kind's every-argument form.
func TestParseRoundTrip(t *testing.T) {
	check := func(o Op) {
		t.Helper()
		got, err := Parse(o.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", o, err)
		}
		if got != o {
			t.Fatalf("Parse(%q) = %+v, want %+v", o, got, o)
		}
	}
	kinds := map[Kind]bool{}
	for seed := int64(1); seed <= 100; seed++ {
		for _, o := range Generate(seed, 150) {
			check(o)
			kinds[o.Kind] = true
		}
	}
	if len(kinds) < 13 {
		t.Errorf("100 generated lists used %d op kinds, want the generator's 13", len(kinds))
	}
	for _, line := range []string{
		"mkdir /d", "rmdir /d", "rm /f", "mv /a /b", "ln /a /b", "stat /f", "ls /d",
		"cat /f", "statfs", "write /f", "write /f two  words", "put /f 2048 p",
		"create /f", "pwrite /f 4095 2 Z", "pread /f 0 1", "truncate /f 0",
		"fsync /f", "sync", "dropcaches",
	} {
		o, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		check(o)
	}
	if o, _ := Parse("ls"); o.Path != "/" {
		t.Errorf(`Parse("ls").Path = %q, want "/"`, o.Path)
	}
	if o, _ := Parse("write /f  two   words "); o.Text != "two words" {
		t.Errorf("write's text = %q, want its words joined by single spaces", o.Text)
	}
}

// TestParseRejects: a malformed line is an error naming the problem, and
// for a known op it carries the op's usage line.
func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"", "empty line"},
		{"frob /x", `unknown command "frob"`},
		{"MKDIR /x", `unknown command "MKDIR"`},
		{"mkdir", "missing <path>; usage: mkdir <path>"},
		{"mkdir /a /b", `extra argument "/b"; usage: mkdir <path>`},
		{"ls /x junk", `extra argument "junk"`},
		{"mv /a", "missing <new>"},
		{"ln /a /b /c", `extra argument "/c"`},
		{"statfs /", `extra argument "/"`},
		{"sync now", `extra argument "now"`},
		{"put /f 10", "missing <tag>"},
		{"put /f ten a", `<n> "ten" is not a count`},
		{"put /f -1 a", `<n> "-1" is not a count`},
		{"put /f 16777217 a", `<n> "16777217" is not a count`},
		{"put /f 10 ab", `<tag> "ab" is not one byte`},
		{"put /f 10 a b", `extra argument "b"`},
		{"pwrite /f -4 1 a", `<off> "-4" is not a count`},
		{"pwrite /f 0x10 1 a", `<off> "0x10" is not a count`},
		{"pread /f 0", "missing <n>"},
		{"pread /f 1.5 2", `<off> "1.5" is not a count`},
		{"truncate /f", "missing <size>; usage: truncate <path> <size>"},
		{"truncate /f -1", `<size> "-1" is not a count`},
		{"fsync", "missing <path>"},
	} {
		_, err := Parse(tc.line)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.line, err, tc.want)
		}
	}
}

// TestContentByOffset: content is a function of (tag, absolute offset),
// so a write at an offset continues the bytes a write from 0 would put
// there.
func TestContentByOffset(t *testing.T) {
	whole := Content('x', 0, 9000)
	if got := Content('x', 4000, 5000); string(got) != string(whole[4000:]) {
		t.Error("Content at offset 4000 differs from the tail of Content at 0")
	}
	if string(Content('y', 0, 9000)) == string(whole) {
		t.Error("two tags wrote the same bytes")
	}
}
