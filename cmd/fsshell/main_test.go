package main

import (
	"bytes"
	"strings"
	"testing"

	"bento/internal/harness"
)

// TestMissingArgumentsPrintUsage feeds every command that takes a
// required argument each too-short argument list on every variant: it
// must print its usage line instead of panicking, and the shell must go
// on to run the next command.
func TestMissingArgumentsPrintUsage(t *testing.T) {
	for _, v := range harness.AllVariants {
		t.Run(v, func(t *testing.T) {
			tg, err := harness.NewTarget(v, harness.Quick())
			if err != nil {
				t.Fatal(err)
			}
			task := tg.K.NewTask("shell")
			for name, u := range usage {
				for n := 1; n <= strings.Count(u, "<"); n++ {
					args := append([]string{name}, strings.Fields("/a /b")[:n-1]...)
					var out bytes.Buffer
					if !command(tg.M, task, args, &out) {
						t.Fatalf("%q ended the shell", args)
					}
					if got := out.String(); got != "usage: "+u+"\n" {
						t.Errorf("%q printed %q, want its usage line", args, got)
					}
				}
			}
			var out bytes.Buffer
			for _, line := range []string{"write /f", "write /g hello world", "cat /g", "stat /f"} {
				if !command(tg.M, task, strings.Fields(line), &out) {
					t.Fatalf("%q ended the shell", line)
				}
			}
			if got := out.String(); !strings.HasPrefix(got, "hello world\nino=") || !strings.Contains(got, "size=0") {
				t.Errorf("shell after the usage errors printed %q", got)
			}
			if command(tg.M, task, []string{"quit"}, &out) {
				t.Error("quit did not end the shell")
			}
		})
	}
}
