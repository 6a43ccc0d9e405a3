// mdcheck verifies the repository's internal markdown links: every
// relative link target in every .md file must exist on disk. External
// links (http, https, mailto) and pure fragments are skipped — CI
// should not fail on someone else's outage — but a fragment on a
// relative link still requires the file itself to exist.
//
// It also holds the changelog to its cap: an entry of dir's CHANGES.md
// for PR capFromPR or later may be at most entryCap bytes — what
// changed, what was deleted, and which file has the numbers; the
// measurement tables belong in those files.
//
// Usage:
//
//	mdcheck [dir]    # default: current directory
//
// Exits nonzero listing every broken link as file:line: target and every
// oversized entry as file:line: PR n: size.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// linkRE matches inline markdown links and images: [text](target).
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, nfiles, err := check(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcheck: %v\n", err)
		os.Exit(1)
	}
	oversized, err := oversizedEntries(filepath.Join(root, "CHANGES.md"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(os.Stderr, "mdcheck: %v\n", err)
		os.Exit(1)
	}
	for _, b := range append(broken, oversized...) {
		fmt.Fprintln(os.Stderr, b)
	}
	if len(broken)+len(oversized) > 0 {
		fmt.Fprintf(os.Stderr, "mdcheck: %d broken link(s) across %d markdown file(s), %d changelog entr(ies) over %d bytes\n",
			len(broken), nfiles, len(oversized), entryCap)
		os.Exit(1)
	}
	fmt.Printf("mdcheck: %d markdown file(s), all internal links resolve, no changelog entry over %d bytes\n", nfiles, entryCap)
}

// The changelog's cap: entries for PR capFromPR on are at most entryCap
// bytes.
const (
	capFromPR = 51
	entryCap  = 4096
)

// entryRE matches the first line of a changelog entry ("- PR 12: …",
// "PR 47 — …", "**PR 50 — …") and captures its PR number.
var entryRE = regexp.MustCompile(`^(?:- )?(?:\*\*)?PR (\d+)\b`)

// oversizedEntries returns every entry of the changelog p for PR
// capFromPR or later that is over entryCap bytes, as "p:line: PR n: size".
// An entry is its first line and the blank or indented lines after it
// (tables, continued paragraphs), up to the last non-blank one.
func oversizedEntries(p string) ([]string, error) {
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var out []string
	pr, start, size, pending := 0, 0, 0, 0 // pending: trailing blank lines' bytes
	flush := func() {
		if pr >= capFromPR && size > entryCap {
			out = append(out, fmt.Sprintf("%s:%d: PR %d: %d bytes, over the %d-byte cap", p, start, pr, size, entryCap))
		}
		pr = 0
	}
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case pr != 0 && strings.TrimSpace(line) == "":
			pending += len(line) + 1
			continue
		case pr != 0 && (line[0] == ' ' || line[0] == '\t'):
			size += pending + len(line) + 1
			pending = 0
			continue
		}
		flush()
		if m := entryRE.FindStringSubmatch(line); m != nil {
			pr, _ = strconv.Atoi(m[1])
			start, size, pending = i+1, len(line)+1, 0
		}
	}
	flush()
	return out, nil
}

// check walks root for .md files and returns every broken internal
// link as "file:line: target", plus the number of files scanned.
func check(root string) (broken []string, nfiles int, err error) {
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		nfiles++
		bs, err := checkFile(p)
		if err != nil {
			return err
		}
		broken = append(broken, bs...)
		return nil
	})
	return broken, nfiles, err
}

func checkFile(p string) ([]string, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var broken []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inFence := false
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		// Links inside fenced code blocks are examples, not navigation.
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if skip(target) {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(p), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				broken = append(broken, fmt.Sprintf("%s:%d: %s", p, line, m[1]))
			}
		}
	}
	return broken, sc.Err()
}

func skip(target string) bool {
	for _, prefix := range []string{"http://", "https://", "mailto:", "#"} {
		if strings.HasPrefix(target, prefix) {
			return true
		}
	}
	return false
}
