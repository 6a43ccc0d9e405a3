package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, p, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFindsBrokenAndAcceptsGood(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "a.md"), strings.Join([]string{
		"[good sibling](b.md)",
		"[good parent](../README.md)",
		"[good fragment](b.md#section)",
		"[external](https://example.com/x.md) [frag](#here) [mail](mailto:x@y)",
		"```",
		"[inside a fence](missing.md)",
		"```",
		"[broken](missing.md)",
	}, "\n"))
	write(t, filepath.Join(dir, "docs", "b.md"), "# b\n")
	write(t, filepath.Join(dir, "README.md"), "[into docs](docs/a.md)\n![img](docs/a.md)\n")

	broken, nfiles, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if nfiles != 3 {
		t.Fatalf("scanned %d files, want 3", nfiles)
	}
	if len(broken) != 1 {
		t.Fatalf("broken = %v, want exactly the one missing.md link", broken)
	}
	if !strings.Contains(broken[0], "a.md:8") || !strings.Contains(broken[0], "missing.md") {
		t.Fatalf("broken[0] = %q, want a.md:8: missing.md", broken[0])
	}
}

func TestCheckSkipsGitAndTestdata(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, ".git", "x.md"), "[broken](nope.md)\n")
	write(t, filepath.Join(dir, "testdata", "y.md"), "[broken](nope.md)\n")
	broken, nfiles, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 || nfiles != 0 {
		t.Fatalf("broken=%v nfiles=%d, want none", broken, nfiles)
	}
}

// TestRepoLinksResolve runs the checker over the repository itself, so
// a broken docs link fails `go test ./...` locally, not just the CI
// docs job.
func TestRepoLinksResolve(t *testing.T) {
	broken, nfiles, err := check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if nfiles == 0 {
		t.Fatal("found no markdown files from cmd/mdcheck")
	}
	for _, b := range broken {
		t.Errorf("broken link: %s", b)
	}
}

func TestOversizedEntries(t *testing.T) {
	dir := t.TempDir()
	long := strings.Repeat("x", entryCap)
	p := filepath.Join(dir, "CHANGES.md")
	write(t, p, strings.Join([]string{
		"- PR 50: " + long, // before the cap applies
		"FOUND: " + long,   // not an entry
		"PR 51 — short, with a table",
		"",
		"  | a | b |",
		"  |---|---|",
		"",
		"**PR 52 — " + long[:entryCap/2],
		"  " + long[:entryCap/2], // the indented continuation pushes it over
		"MENDED: " + long,
		"- PR 53: " + long[:entryCap-1-len("- PR 53: ")], // exactly at the cap with its newline
		"- Follow-up, no number: " + long,
		"",
	}, "\n"))
	got, err := oversizedEntries(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{p + ":8: PR 52: 4112 bytes, over the 4096-byte cap"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("oversizedEntries = %q, want %q", got, want)
	}
}
