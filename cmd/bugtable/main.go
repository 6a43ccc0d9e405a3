// bugtable prints the paper's Table 1 (bug analysis with derived
// statistics) and Table 2 (extensibility mechanism comparison), and runs
// the fault-injection suite demonstrating which bug classes the framework
// contains.
package main

import (
	"fmt"

	"bento/internal/buganalysis"
	"bento/internal/buginject"
)

func main() {
	fmt.Println(buganalysis.RenderTable1())
	fmt.Println(buganalysis.RenderTable2())
	fmt.Println("Fault injection (each Table 1 class run against the framework):")
	for _, o := range buginject.RunAll() {
		verdict := "NOT PREVENTED"
		if o.Caught {
			verdict = "caught"
		}
		fmt.Printf("  %-24s %-14s %s\n", o.Kind, verdict, o.Detail)
	}
}
