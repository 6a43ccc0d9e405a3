// Quickstart: register the xv6-on-Bento module with the simulated kernel,
// mount it on a fresh device, and do ordinary file I/O through the
// syscall layer — the smallest complete use of the public API.
package main

import (
	"fmt"
	"log"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/layout"
)

func main() {
	// A kernel with the calibrated cost model, and a 64 MiB NVMe device.
	k := kernel.New(costmodel.Default())
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16384})

	// mkfs with 1024 inodes, insert the module, mount — configured as
	// the benchmark mounts Bento.
	task := k.NewTask("main")
	m, err := harness.Mount(k, task, dev, harness.VariantBento, harness.Published(harness.VariantBento), 1024)
	if err != nil {
		log.Fatal(err)
	}

	// Ordinary file I/O.
	if err := m.Mkdir(task, "/docs"); err != nil {
		log.Fatal(err)
	}
	if err := m.WriteFile(task, "/docs/hello.txt", []byte("hello from xv6 on Bento\n")); err != nil {
		log.Fatal(err)
	}
	data, err := m.ReadFile(task, "/docs/hello.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %s", data)

	ents, err := m.ReadDir(task, "/docs")
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range ents {
		fmt.Printf("  %s ino=%d %s\n", e.Type, e.Ino, e.Name)
	}

	// Everything above advanced virtual, not wall-clock, time.
	if err := k.Unmount(task, "/"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("virtual time elapsed:", task.Clk.Now())

	// The disk is consistent: run fsck to prove it.
	rep, err := layout.Fsck(task.Clk, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fsck: ok=%v inodes=%d\n", rep.OK(), rep.Inodes)
}
