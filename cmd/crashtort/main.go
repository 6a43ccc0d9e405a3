// crashtort sweeps every crash point of the journal torture workload
// and reports the ones each variant fails to recover from.
//
// Usage:
//
//	crashtort                        # all variants, keep=0 and keep=1
//	crashtort -variant bento         # one variant
//	crashtort -keep 0                # one cache-retention value only
//	crashtort -nobarriers            # strip write ordering (expect failures)
//	crashtort -point bento/k=17/keep=0   # replay one crash point bit-for-bit
//	crashtort -selftest              # prove the harness catches broken ordering
//	crashtort -md                    # results as a markdown table (CI summary)
//
// A crash point id names (variant, command index, cache retention) —
// see internal/crashtort. -point and -selftest fix their own
// configuration, so neither combines with the sweep flags. The process
// exits 2 on invalid flags, and 1 if any swept point fails to recover,
// if a replayed -point fails, or if -selftest does NOT observe failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"bento/internal/crashtort"
)

// cliFlags are the flag values validateFlags vets.
type cliFlags struct {
	variant    string
	keep       float64
	nobarriers bool
	point      string
	selftest   bool
	md         bool
}

// validateFlags fails fast, before any sweep runs, on a value the sweep
// would mislabel or a flag the chosen mode would silently ignore: an
// unknown -variant; a -keep outside [0, 1] other than the -1 sentinel
// (Device.Crash would clamp it while results and point ids carried the
// raw value); and, next to -point or -selftest — which fix their own
// configuration and print no table — any of -variant, -keep, -nobarriers
// or -md, or the other mode.
func validateFlags(f cliFlags) error {
	if f.variant != "all" && !slices.Contains(crashtort.AllVariants, crashtort.Variant(f.variant)) {
		return fmt.Errorf("-variant %q: want bento, vfs, ext4, fuse or all", f.variant)
	}
	if f.keep != -1 && !(f.keep >= 0 && f.keep <= 1) {
		return fmt.Errorf("-keep %v outside [0, 1] (-1 sweeps both extremes)", f.keep)
	}
	if f.point == "" && !f.selftest {
		return nil
	}
	mode, ignored := "-selftest", []string(nil)
	if f.point != "" {
		mode = "-point"
		if f.selftest {
			ignored = append(ignored, "-selftest")
		}
	}
	if f.variant != "all" {
		ignored = append(ignored, "-variant")
	}
	if f.keep != -1 {
		ignored = append(ignored, "-keep")
	}
	if f.nobarriers {
		ignored = append(ignored, "-nobarriers")
	}
	if f.md {
		ignored = append(ignored, "-md")
	}
	if len(ignored) > 0 {
		return fmt.Errorf("%s fixes its own configuration and output; it cannot be combined with %s",
			mode, strings.Join(ignored, ", "))
	}
	return nil
}

func main() {
	variant := flag.String("variant", "all", "variant to sweep: bento, vfs, ext4, fuse, or all")
	keep := flag.Float64("keep", -1, "volatile-cache retention at the cut, in [0,1]; -1 sweeps both extremes (0 and 1)")
	nobarriers := flag.Bool("nobarriers", false, "strip the variant's write-ordering discipline; a keep=0 sweep should then fail")
	point := flag.String("point", "", "replay a single crash point by id (e.g. bento/k=17/keep=0) and report its verdict")
	selftest := flag.Bool("selftest", false, "run the broken-ordering sweep (bento, nobarriers, keep=0) and FAIL unless it produces failures")
	md := flag.Bool("md", false, "emit the per-variant result table as markdown (for CI step summaries)")
	flag.Parse()

	if err := validateFlags(cliFlags{
		variant: *variant, keep: *keep, nobarriers: *nobarriers,
		point: *point, selftest: *selftest, md: *md,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "crashtort: %v\n", err)
		os.Exit(2)
	}

	if *point != "" {
		replay(*point)
		return
	}
	if *selftest {
		runSelftest()
		return
	}

	variants := crashtort.AllVariants
	if *variant != "all" {
		variants = []crashtort.Variant{crashtort.Variant(*variant)}
	}
	keeps := []float64{0, 1}
	if *keep >= 0 {
		keeps = []float64{*keep}
	}

	var results []crashtort.Result
	bad := false
	for _, v := range variants {
		for _, kp := range keeps {
			res, err := crashtort.Sweep(crashtort.Config{
				Variant: v, Keep: kp, NoBarriers: *nobarriers,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "crashtort: %s keep=%g: %v\n", v, kp, err)
				os.Exit(1)
			}
			results = append(results, res)
			if !res.OK() {
				bad = true
			}
		}
	}
	report(results, *md)
	if bad {
		os.Exit(1)
	}
}

func report(results []crashtort.Result, md bool) {
	if md {
		fmt.Println("| variant | keep | crash points | failures | verdict |")
		fmt.Println("|---|---|---|---|---|")
	}
	for _, res := range results {
		verdict := "pass"
		if !res.OK() {
			verdict = "FAIL"
		}
		if md {
			fmt.Printf("| %s | %g | %d | %d | %s |\n",
				res.Variant, res.Keep, res.Points, len(res.Failures), verdict)
		} else {
			fmt.Printf("%-6s keep=%g  %3d points  %3d failures  %s\n",
				res.Variant, res.Keep, res.Points, len(res.Failures), verdict)
		}
	}
	// Failure detail goes to stderr in both modes so the table stays clean.
	for _, res := range results {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", f.Point.ID(), f.Err)
		}
	}
}

func replay(id string) {
	p, err := crashtort.ParseID(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := crashtort.Config{Variant: p.Variant, Keep: p.Keep, NoBarriers: p.NoBarriers}
	if err := crashtort.RunPoint(cfg, p.K); err != nil {
		fmt.Printf("FAIL %s: %v\n", p.ID(), err)
		os.Exit(1)
	}
	fmt.Printf("ok   %s: recovered\n", p.ID())
}

// runSelftest strips bentoimpl's FLUSH discipline and sweeps with an
// adversarial (keep=0) cache: fsync'd data must then be lost at many
// crash points. Zero failures would mean the harness can no longer
// detect broken journal ordering — so zero failures is the failure.
func runSelftest() {
	res, err := crashtort.Sweep(crashtort.Config{
		Variant: crashtort.Bento, Keep: 0, NoBarriers: true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashtort: selftest: %v\n", err)
		os.Exit(1)
	}
	if res.OK() {
		fmt.Printf("SELFTEST FAIL: broken write ordering swept %d points with zero failures\n", res.Points)
		os.Exit(1)
	}
	fmt.Printf("selftest ok: broken ordering caught at %d/%d crash points (e.g. %s)\n",
		len(res.Failures), res.Points, res.Failures[0].Point.ID())
}
