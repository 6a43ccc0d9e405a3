package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/oplist"
)

// TestMissingArgumentsPrintUsage feeds every op each too-short argument
// list, and each op without free text one argument too many, on every
// variant: it must print its usage line instead of panicking or
// dropping the argument, and the shell must go on to run the next
// command.
func TestMissingArgumentsPrintUsage(t *testing.T) {
	for _, v := range harness.AllVariants {
		t.Run(v, func(t *testing.T) {
			tg, err := harness.NewTarget(v, harness.Quick())
			if err != nil {
				t.Fatal(err)
			}
			task := tg.K.NewTask("shell")
			for k := range oplist.NumKinds {
				u := k.Usage()
				args := strings.Fields(strings.NewReplacer("<path>", "/a", "<old>", "/a", "<new>", "/b",
					"<off>", "0", "<size>", "0", "<n>", "1", "<tag>", "t", "[path]", "/", "[text]", "").Replace(u))
				var lines []string
				for n := 1; n <= strings.Count(u, "<"); n++ {
					lines = append(lines, strings.Join(args[:n], " "))
				}
				if !strings.Contains(u, "[text]") {
					lines = append(lines, strings.Join(append(args, "/extra"), " "))
				}
				for _, line := range lines {
					var out bytes.Buffer
					if !command(tg.M, task, line, &out) {
						t.Fatalf("%q ended the shell", line)
					}
					if got := out.String(); !strings.HasSuffix(got, "; usage: "+u+"\n") {
						t.Errorf("%q printed %q, want its usage line", line, got)
					}
				}
			}
			var out bytes.Buffer
			for _, line := range []string{"write /f", "write /g hello world", "cat /g", "stat /f"} {
				if !command(tg.M, task, line, &out) {
					t.Fatalf("%q ended the shell", line)
				}
			}
			if got, want := out.String(), "ok\nok\nok \"hello world\"\nok type=- size=0 nlink=1\n"; got != want {
				t.Errorf("shell after the usage errors printed %q, want %q", got, want)
			}
			if _, err := tg.M.Stat(task, "/a"); err == nil {
				t.Error("a rejected line created /a")
			}
			if command(tg.M, task, "quit", &out) {
				t.Error("quit did not end the shell")
			}
		})
	}
}

// TestEveryOp runs testdata/every-op.txt, one line per op kind, through
// the shell on every variant: each op must succeed. The package comment
// must list every op's usage line.
func TestEveryOp(t *testing.T) {
	data, err := os.ReadFile("testdata/every-op.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	kinds := map[oplist.Kind]bool{}
	for _, l := range lines {
		op, err := oplist.Parse(l)
		if err != nil {
			t.Fatal(err)
		}
		kinds[op.Kind] = true
	}
	if len(kinds) != int(oplist.NumKinds) {
		t.Errorf("testdata/every-op.txt covers %d of %d op kinds", len(kinds), oplist.NumKinds)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:bytes.Index(src, []byte("package main"))])
	for k := range oplist.NumKinds {
		if !strings.Contains(doc, k.Usage()) {
			t.Errorf("package comment does not list %q", k.Usage())
		}
	}
	for _, v := range harness.AllVariants {
		tg, err := harness.NewTarget(v, harness.Quick())
		if err != nil {
			t.Fatal(err)
		}
		task := tg.K.NewTask("shell")
		for _, l := range lines {
			var out bytes.Buffer
			command(tg.M, task, l, &out)
			if !strings.HasPrefix(out.String(), "ok") {
				t.Errorf("%s: %q printed %q", v, l, out.String())
			}
		}
	}
}

// TestQuitUnmounts requires the shell to unmount on quit and at the end
// of its input on every variant, so each variant's leak check runs
// after whatever ops the input held: the unmount must succeed, the
// mount must be gone, and a line after quit must not run.
func TestQuitUnmounts(t *testing.T) {
	for _, v := range harness.AllVariants {
		for _, in := range []string{"write /f hello\nquit\nmkdir /late\n", "write /f hello\n"} {
			tg, err := harness.NewTarget(v, harness.Quick())
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := shell(tg, strings.NewReader(in), &out); err != nil {
				t.Fatalf("%s: shell on %q: %v", v, in, err)
			}
			if got, want := out.String(), "> ok\n> "; got != want {
				t.Errorf("%s: shell on %q printed %q, want %q", v, in, got, want)
			}
			if err := tg.K.Unmount(tg.K.NewTask("check"), "/"); !errors.Is(err, fsapi.ErrNotExist) {
				t.Errorf("%s: second unmount after %q returned %v, want the mount gone", v, in, err)
			}
		}
	}
}
