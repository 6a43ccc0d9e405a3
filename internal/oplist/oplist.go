// Package oplist is the one op language the repo's file-system tests
// speak: the differential test's seeded lists, the crash fuzzer's fixed
// torture workload and fsshell's command lines are all lists of Op.
//
// An op prints (String) and parses (Parse) in fsshell's syntax, one op
// per line, so any list — a generated one that diverged, a crash
// workload — can be pasted into fsshell and replayed. Run is the one
// interpreter onto kernel.Mount; Tree is the one final-tree walk.
package oplist

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind names an op.
type Kind uint8

// The op kinds. Each issues the kernel calls named beside it.
const (
	Mkdir      Kind = iota // Mkdir
	Rmdir                  // Rmdir
	Rm                     // Unlink
	Mv                     // Rename
	Ln                     // Link
	Stat                   // Stat
	Ls                     // ReadDir, listing sorted
	Cat                    // ReadFile
	StatFS                 // StatFS
	Write                  // WriteFile(text)
	Put                    // WriteFile(Content(tag, 0, n))
	Create                 // Open(O_CREAT|O_EXCL|O_RDWR), Close
	PWrite                 // Open(O_CREAT|O_RDWR), PWrite(Content(tag, off, n)), Close
	PRead                  // Open(O_RDONLY), PRead n bytes at off, Close
	Truncate               // Open(O_RDWR), Truncate(size), Close
	FSync                  // Open(O_RDWR), FSync, Close
	Sync                   // Sync
	DropCaches             // DropCaches
	NumKinds               // the number of kinds
)

// syntax is each kind's name and arguments. An argument's spelling says
// which Op field it fills: <path>, [path] and <old> fill Path; <new> To;
// <off> and <size> Off; <n> N; <tag> Tag; [text], the rest of the line,
// Text. A [bracketed] argument may be left out.
var syntax = [NumKinds]struct{ name, args string }{
	Mkdir:      {"mkdir", "<path>"},
	Rmdir:      {"rmdir", "<path>"},
	Rm:         {"rm", "<path>"},
	Mv:         {"mv", "<old> <new>"},
	Ln:         {"ln", "<old> <new>"},
	Stat:       {"stat", "<path>"},
	Ls:         {"ls", "[path]"},
	Cat:        {"cat", "<path>"},
	StatFS:     {"statfs", ""},
	Write:      {"write", "<path> [text]"},
	Put:        {"put", "<path> <n> <tag>"},
	Create:     {"create", "<path>"},
	PWrite:     {"pwrite", "<path> <off> <n> <tag>"},
	PRead:      {"pread", "<path> <off> <n>"},
	Truncate:   {"truncate", "<path> <size>"},
	FSync:      {"fsync", "<path>"},
	Sync:       {"sync", ""},
	DropCaches: {"dropcaches", ""},
}

// maxN bounds an op's byte count: Run allocates N bytes for put, pwrite
// and pread, so a typed count must not exhaust the host.
const maxN = 1 << 24

func (k Kind) String() string { return syntax[k].name }

// Usage is k's syntax line, e.g. "mv <old> <new>".
func (k Kind) Usage() string { return strings.TrimSpace(syntax[k].name + " " + syntax[k].args) }

// An Op is one line of a list. Fields its kind's syntax does not name
// stay zero.
type Op struct {
	Kind     Kind
	Path, To string
	Off      int64  // pwrite and pread offset; truncate size
	N        int    // put, pwrite and pread byte count
	Tag      byte   // put and pwrite content tag (see Content)
	Text     string // write's text
}

// String prints o in fsshell syntax; Parse reads it back to o.
func (o Op) String() string {
	s := []string{o.Kind.String()}
	for _, a := range strings.Fields(syntax[o.Kind].args) {
		switch a {
		case "<path>", "[path]", "<old>":
			s = append(s, o.Path)
		case "<new>":
			s = append(s, o.To)
		case "<off>", "<size>":
			s = append(s, strconv.FormatInt(o.Off, 10))
		case "<n>":
			s = append(s, strconv.Itoa(o.N))
		case "<tag>":
			s = append(s, string(o.Tag))
		case "[text]":
			if o.Text != "" {
				s = append(s, o.Text)
			}
		}
	}
	return strings.Join(s, " ")
}

var kindOf = func() map[string]Kind {
	m := make(map[string]Kind, NumKinds)
	for k := range NumKinds {
		m[k.String()] = k
	}
	return m
}()

// Parse reads one op from line. It rejects an unknown op, a missing or
// extra argument (write's text excepted: it takes the rest of the line,
// its words joined by single spaces), an offset, size or count that is
// not a non-negative integer, a count above 16 MiB, and a tag that is
// not one byte. An error for a known op ends with its usage line.
func Parse(line string) (Op, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return Op{}, fmt.Errorf("empty line")
	}
	k, ok := kindOf[f[0]]
	if !ok {
		return Op{}, fmt.Errorf("unknown command %q", f[0])
	}
	bad := func(why string) (Op, error) {
		return Op{}, fmt.Errorf("%s: %s; usage: %s", k, why, k.Usage())
	}
	o, args := Op{Kind: k}, f[1:]
	spec := strings.Fields(syntax[k].args)
	for i, a := range spec {
		if i >= len(args) {
			if a[0] != '[' {
				return bad("missing " + a)
			}
			if a == "[path]" {
				o.Path = "/"
			}
			continue
		}
		v := args[i]
		switch a {
		case "<path>", "[path]", "<old>":
			o.Path = v
		case "<new>":
			o.To = v
		case "<off>", "<size>", "<n>":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 || (a == "<n>" && n > maxN) {
				return bad(fmt.Sprintf("%s %q is not a count in [0, %d]", a, v, int64(maxN)))
			}
			if a == "<n>" {
				o.N = int(n)
			} else {
				o.Off = n
			}
		case "<tag>":
			if len(v) != 1 {
				return bad(fmt.Sprintf("%s %q is not one byte", a, v))
			}
			o.Tag = v[0]
		case "[text]":
			o.Text = strings.Join(args[i:], " ")
			return o, nil
		}
	}
	if len(args) > len(spec) {
		return bad(fmt.Sprintf("extra argument %q", args[len(spec)]))
	}
	return o, nil
}

// Content is the n bytes a put or pwrite writes at file offset off: the
// byte at offset p is tag ^ byte(p*31) ^ byte(p>>8), so a file's bytes
// say which write, and which offset of it, they came from.
func Content(tag byte, off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		p := off + int64(i)
		b[i] = tag ^ byte(p*31) ^ byte(p>>8)
	}
	return b
}
