// fsshell is an interactive shell over a freshly mounted file system in
// the simulated kernel — handy for poking at any of the four variants.
//
//	fsshell -fs bento|ckernel|fuse|ext4
//
// Every line but help, time and quit is an op of internal/oplist, the
// language the differential test and the crash fuzzer speak, so a list
// printed by either replays here line by line. Each op prints "ok" and
// what it returned, or its errno; a malformed line prints its usage.
//
//	mkdir <path>                  rmdir <path>
//	rm <path>                     mv <old> <new>
//	ln <old> <new>                stat <path>
//	ls [path]                     cat <path>
//	statfs                        write <path> [text]
//	put <path> <n> <tag>          create <path>
//	pwrite <path> <off> <n> <tag> pread <path> <off> <n>
//	truncate <path> <size>        fsync <path>
//	sync                          dropcaches
//
// put and pwrite write n bytes of a pattern of <tag> (one byte) and the
// file offset; pread prints a digest of what it read; dropcaches empties
// the page, dentry and buffer caches. help lists the ops, time prints
// the task's virtual time, quit exits. On quit or end of input the shell
// unmounts; if the unmount fails (a file system that still holds a
// buffer fails it) it prints the error and exits 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bento/internal/filebench"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/oplist"
)

func main() {
	fsName := flag.String("fs", "bento", "variant: bento, ckernel, fuse, ext4")
	flag.Parse()

	variant := map[string]string{
		"bento": harness.VariantBento, "ckernel": harness.VariantCKernel,
		"fuse": harness.VariantFUSE, "ext4": harness.VariantExt4,
	}[strings.ToLower(*fsName)]
	if variant == "" {
		fmt.Fprintln(os.Stderr, "fsshell: unknown variant", *fsName)
		os.Exit(1)
	}
	o := harness.Quick()
	tg, err := harness.NewTarget(variant, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsshell:", err)
		os.Exit(1)
	}
	fmt.Printf("mounted %s; type 'help' for commands\n", variant)
	if err := shell(tg, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsshell:", err)
		os.Exit(1)
	}
}

// shell runs the lines of in on tg's mount, printing to out, until quit
// or the end of in, then unmounts: a file system that still holds a
// buffer fails its unmount, and shell returns that error.
func shell(tg filebench.Target, in io.Reader, out io.Writer) error {
	task := tg.K.NewTask("shell")
	sc := bufio.NewScanner(in)
	for fmt.Fprint(out, "> "); sc.Scan(); fmt.Fprint(out, "> ") {
		if !command(tg.M, task, sc.Text(), out) {
			break
		}
	}
	if err := tg.K.Unmount(task, "/"); err != nil {
		return fmt.Errorf("unmount: %w", err)
	}
	return nil
}

// command runs one shell line on m, printing to w. It reports false
// when the shell should exit.
func command(m *kernel.Mount, task *kernel.Task, line string, w io.Writer) bool {
	switch strings.Join(strings.Fields(line), " ") {
	case "":
	case "quit", "exit":
		return false
	case "help":
		for k := range oplist.NumKinds {
			fmt.Fprintln(w, k.Usage())
		}
		fmt.Fprintln(w, "help\ntime\nquit")
	case "time":
		fmt.Fprintln(w, "virtual time:", task.Clk.Now())
	default:
		op, err := oplist.Parse(line)
		if err != nil {
			fmt.Fprintln(w, err)
			return true
		}
		fmt.Fprintln(w, oplist.Run(m, task, []oplist.Op{op}, nil)[0])
	}
	return true
}
