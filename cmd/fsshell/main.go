// fsshell is an interactive shell over a freshly mounted file system in
// the simulated kernel — handy for poking at any of the four variants.
//
//	fsshell -fs bento|ckernel|fuse|ext4
//
// Commands: ls [path], cat <path>, write <path> [text], mkdir <path>,
// rm <path>, rmdir <path>, mv <old> <new>, ln <old> <new>, stat <path>,
// statfs, sync, time, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
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
	task := tg.K.NewTask("shell")
	fmt.Printf("mounted %s; type 'help' for commands\n", variant)

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		if !command(tg.M, task, strings.Fields(sc.Text()), os.Stdout) {
			return
		}
	}
}

// usage gives each command's arguments; a command missing a <required>
// one prints its line instead of running.
var usage = map[string]string{
	"cat": "cat <path>", "write": "write <path> [text]", "mkdir": "mkdir <path>",
	"rm": "rm <path>", "rmdir": "rmdir <path>", "mv": "mv <old> <new>",
	"ln": "ln <old> <new>", "stat": "stat <path>",
}

// command runs one shell command line, split into args, on m, printing
// to w. It reports false when the shell should exit.
func command(m *kernel.Mount, task *kernel.Task, args []string, w io.Writer) bool {
	if len(args) == 0 {
		return true
	}
	if u, ok := usage[args[0]]; ok && len(args) <= strings.Count(u, "<") {
		fmt.Fprintln(w, "usage:", u)
		return true
	}
	var err error
	switch args[0] {
	case "quit", "exit":
		return false
	case "help":
		fmt.Fprintln(w, "ls cat write mkdir rm rmdir mv ln stat statfs sync time quit")
	case "ls":
		p := "/"
		if len(args) > 1 {
			p = args[1]
		}
		var ents []fsapi.DirEntry
		ents, err = m.ReadDir(task, p)
		for _, e := range ents {
			fmt.Fprintf(w, "%s %8d %s\n", e.Type, e.Ino, e.Name)
		}
	case "cat":
		var data []byte
		data, err = m.ReadFile(task, args[1])
		if err == nil {
			fmt.Fprintln(w, string(data))
		}
	case "write":
		err = m.WriteFile(task, args[1], []byte(strings.Join(args[2:], " ")))
	case "mkdir":
		err = m.Mkdir(task, args[1])
	case "rm":
		err = m.Unlink(task, args[1])
	case "rmdir":
		err = m.Rmdir(task, args[1])
	case "mv":
		err = m.Rename(task, args[1], args[2])
	case "ln":
		err = m.Link(task, args[1], args[2])
	case "stat":
		var st fsapi.Stat
		st, err = m.Stat(task, args[1])
		if err == nil {
			fmt.Fprintf(w, "ino=%d type=%s size=%d nlink=%d\n", st.Ino, st.Type, st.Size, st.Nlink)
		}
	case "statfs":
		var st fsapi.FSStat
		st, err = m.StatFS(task)
		if err == nil {
			fmt.Fprintf(w, "blocks %d/%d free, inodes %d/%d free\n",
				st.FreeBlocks, st.TotalBlocks, st.FreeInodes, st.TotalInodes)
		}
	case "sync":
		err = m.Sync(task)
	case "time":
		fmt.Fprintln(w, "virtual time:", task.Clk.Now())
	default:
		fmt.Fprintln(w, "unknown command; try 'help'")
	}
	if err != nil {
		fmt.Fprintln(w, "error:", err)
	}
	return true
}
