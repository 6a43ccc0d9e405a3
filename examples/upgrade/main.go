// Upgrade: the paper's §4.8 online-upgrade protocol in action — swap the
// running file-system implementation while an application holds an open
// file, with in-memory state carried across via the transfer API.
package main

import (
	"fmt"
	"log"

	"bento/internal/blockdev"
	"bento/internal/core"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
)

func main() {
	k := kernel.New(costmodel.Default())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16384})
	task := k.NewTask("app")
	m, err := harness.Mount(k, task, dev, harness.VariantBento, harness.Published(harness.VariantBento), 1024)
	if err != nil {
		log.Fatal(err)
	}

	// The application opens a log file and starts writing.
	f, err := m.Open(task, "/app.log", fsapi.OCreate|fsapi.OWronly|fsapi.OAppend)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write(task, []byte("written by generation 0\n")); err != nil {
		log.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		log.Fatal(err)
	}

	// Operator upgrades the module — no unmount, no application restart.
	// The replacement is built with the running module's configuration.
	shim := m.FS().(*core.BentoFS)
	before := task.Clk.Now()
	if err := shim.Upgrade(task, bentoimpl.New(shim.Inner().(*bentoimpl.FS).Config())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("upgrade complete: generation %d, pause %v\n",
		shim.Generation(), task.Clk.Now()-before)

	// The same file descriptor keeps working on the new implementation.
	if _, err := f.Write(task, []byte("written by generation 1\n")); err != nil {
		log.Fatal(err)
	}
	if err := f.FSync(task); err != nil {
		log.Fatal(err)
	}
	if err := m.Close(task, f); err != nil {
		log.Fatal(err)
	}
	data, err := m.ReadFile(task, "/app.log")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(string(data))
}
