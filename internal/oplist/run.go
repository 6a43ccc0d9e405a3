package oplist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"bento/internal/fsapi"
	"bento/internal/kernel"
)

// Run executes ops on m as task t and returns one result line per op:
// "ok", or the innermost error's text, then every value the op returned.
// Apart from statfs's counts, a line names nothing a file system picks
// for itself (inode numbers, a directory's size), so two file systems
// given the same list must print the same lines. Run stops after the op
// at which stop, if not nil, first reports true; the lines then cover
// the ops run.
func Run(m *kernel.Mount, t *kernel.Task, ops []Op, stop func() bool) []string {
	out := make([]string, 0, len(ops))
	for _, o := range ops {
		out = append(out, run(m, t, o))
		if stop != nil && stop() {
			break
		}
	}
	return out
}

func run(m *kernel.Mount, t *kernel.Task, o Op) string {
	withFile := func(flags int, fn func(f *kernel.File) string) string {
		f, err := m.Open(t, o.Path, flags)
		if err != nil {
			return errno(err)
		}
		res := fn(f)
		if err := m.Close(t, f); err != nil {
			res += " close " + errno(err)
		}
		return res
	}
	switch o.Kind {
	case Mkdir:
		return errno(m.Mkdir(t, o.Path))
	case Rmdir:
		return errno(m.Rmdir(t, o.Path))
	case Rm:
		return errno(m.Unlink(t, o.Path))
	case Mv:
		return errno(m.Rename(t, o.Path, o.To))
	case Ln:
		return errno(m.Link(t, o.Path, o.To))
	case Stat:
		st, err := m.Stat(t, o.Path)
		return result(err, statLine(st))
	case Ls:
		ents, err := m.ReadDir(t, o.Path)
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = fmt.Sprintf("%s:%v", e.Name, e.Type)
		}
		sort.Strings(names)
		return result(err, strings.Join(names, ","))
	case Cat:
		data, err := m.ReadFile(t, o.Path)
		return result(err, strconv.Quote(string(data)))
	case StatFS:
		st, err := m.StatFS(t)
		return result(err, fmt.Sprintf("blocks %d/%d free, inodes %d/%d free",
			st.FreeBlocks, st.TotalBlocks, st.FreeInodes, st.TotalInodes))
	case Write:
		return errno(m.WriteFile(t, o.Path, []byte(o.Text)))
	case Put:
		return errno(m.WriteFile(t, o.Path, Content(o.Tag, 0, o.N)))
	case Create:
		return withFile(fsapi.OCreate|fsapi.OExcl|fsapi.ORdwr, func(*kernel.File) string { return "ok" })
	case PWrite:
		return withFile(fsapi.OCreate|fsapi.ORdwr, func(f *kernel.File) string {
			n, err := f.PWrite(t, Content(o.Tag, o.Off, o.N), o.Off)
			return fmt.Sprintf("%s n=%d size=%d", errno(err), n, f.Size())
		})
	case PRead:
		return withFile(fsapi.ORdonly, func(f *kernel.File) string {
			buf := make([]byte, o.N)
			n, err := f.PRead(t, buf, o.Off)
			return fmt.Sprintf("%s n=%d %x", errno(err), n, digest(buf[:n]))
		})
	case Truncate:
		return withFile(fsapi.ORdwr, func(f *kernel.File) string { return errno(f.Truncate(t, o.Off)) })
	case FSync:
		return withFile(fsapi.ORdwr, func(f *kernel.File) string { return errno(f.FSync(t)) })
	case Sync:
		return errno(m.Sync(t))
	case DropCaches:
		m.DropCaches()
		return "ok"
	}
	panic(fmt.Sprintf("oplist: op kind %d", o.Kind))
}

// Tree walks m's whole tree in name order and returns one line per
// entry: its path, type, nlink and, for a file, size and a digest of its
// bytes. It stops at the first entry it cannot list, stat or read, and
// at a directory it has already walked: a damaged image can hold a
// directory that reaches itself.
func Tree(m *kernel.Mount, t *kernel.Task) ([]string, error) {
	root, err := m.Stat(t, "/")
	if err != nil {
		return nil, fmt.Errorf("stat /: %w", err)
	}
	walked := map[fsapi.Ino]bool{root.Ino: true}
	var out []string
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := m.ReadDir(t, dir)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", dir, err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			p := strings.TrimSuffix(dir, "/") + "/" + e.Name
			st, err := m.Stat(t, p)
			if err != nil {
				return fmt.Errorf("stat %s: %w", p, err)
			}
			line := p + ": " + statLine(st)
			if st.Type == fsapi.TypeDir {
				if walked[st.Ino] {
					return fmt.Errorf("%s: directory inode %d walked already: the tree has a cycle", p, st.Ino)
				}
				walked[st.Ino] = true
				out = append(out, line)
				if err := walk(p); err != nil {
					return err
				}
				continue
			}
			data, err := m.ReadFile(t, p)
			if err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
			out = append(out, fmt.Sprintf("%s %x", line, digest(data)))
		}
		return nil
	}
	err = walk("/")
	return out, err
}

// errno is "ok" for nil, else the innermost wrapped error's text: the
// errno every file system agrees on, not its own wrapping.
func errno(err error) string {
	if err == nil {
		return "ok"
	}
	for u := errors.Unwrap(err); u != nil; u = errors.Unwrap(err) {
		err = u
	}
	return err.Error()
}

func result(err error, detail string) string {
	if err != nil {
		return errno(err)
	}
	if detail == "" {
		return "ok"
	}
	return "ok " + detail
}

// statLine leaves out a directory's size, which is its format's (memfs
// reports 0).
func statLine(st fsapi.Stat) string {
	if st.Type == fsapi.TypeDir {
		return fmt.Sprintf("type=%v nlink=%d", st.Type, st.Nlink)
	}
	return fmt.Sprintf("type=%v size=%d nlink=%d", st.Type, st.Size, st.Nlink)
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
