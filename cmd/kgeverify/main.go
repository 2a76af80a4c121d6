// Command kgeverify is the statistical verification gate behind
// `make verify-stats`. It has three modes, combinable in one invocation:
//
//	kgeverify                      # golden regression + property checks
//	kgeverify -update              # re-record the golden runs
//	kgeverify -soak -iters 5       # chaos soak: crash/recover/serve loops
//	kgeverify -tcp                 # TCP transport vs simnet trajectory identity
//
// Golden regression re-runs every strategy scenario with fixed seeds and
// diffs the convergence curves against the committed reference
// (internal/testkit/testdata/goldens.json), diagnosing any drift down to
// the first diverging epoch. Property checks test the stochastic contracts
// (quantizer unbiasedness, selection keep rates, partition invariants, switch
// permanence, hardest-negative ordering) under CLT-derived bounds. The
// soak runs randomized-but-seeded train->crash->recover->checkpoint->serve
// cycles and asserts MRR within tolerance plus no lost updates.
//
// Exit status is 0 only when every requested check passes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"kgedist/internal/testkit"
)

// defaultGoldens locates the committed golden file relative to the module
// root when run via `go run ./cmd/kgeverify` from the repo; -goldens
// overrides for other layouts.
const defaultGoldens = "internal/testkit/testdata/goldens.json"

func main() {
	var (
		goldens = flag.String("goldens", defaultGoldens, "path to the golden-run reference file")
		update  = flag.Bool("update", false, "re-record goldens instead of verifying")
		noGold  = flag.Bool("no-goldens", false, "skip the golden regression sweep")
		noProps = flag.Bool("no-props", false, "skip the statistical property checks")
		soak    = flag.Bool("soak", false, "run the chaos soak (train/crash/recover/serve loops)")
		tcp     = flag.Bool("tcp", false, "verify the TCP transport is trajectory-identical to simnet (3 ranks over localhost)")
		iters   = flag.Int("iters", 3, "soak iterations")
		seed    = flag.Uint64("seed", 1, "seed for property checks and the soak")
		soakDir = flag.String("soak-dir", "", "scratch dir for soak checkpoints (default: a temp dir)")
		verbose = flag.Bool("v", false, "per-scenario progress")
	)
	flag.Parse()

	report := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	progress := report
	if !*verbose {
		progress = nil
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		failed = true
	}

	if *update {
		report("recording goldens (%d scenarios)...", len(testkit.Scenarios()))
		gf, err := testkit.RecordGoldens(report)
		if err != nil {
			fail("kgeverify: %v", err)
			os.Exit(1)
		}
		if err := testkit.SaveGoldens(*goldens, gf); err != nil {
			fail("kgeverify: %v", err)
			os.Exit(1)
		}
		report("wrote %s (%d runs)", *goldens, len(gf.Runs))
		return
	}

	if !*noGold {
		gf, err := testkit.LoadGoldens(*goldens)
		if err != nil {
			fail("kgeverify: %v", err)
		} else {
			drifts := testkit.VerifyGoldens(gf, testkit.DefaultTolerance(), progress)
			for _, d := range drifts {
				fail("drift: %s", d)
			}
			report("golden regression: %d scenarios, %d drifts", len(testkit.Scenarios()), len(drifts))
		}
	}

	if !*noProps {
		results := testkit.AllPropertyChecks(*seed)
		bad := 0
		for _, r := range results {
			if !r.OK {
				bad++
				fail("property: %s", r)
			} else if progress != nil {
				progress("property: %s", r)
			}
		}
		report("property checks: %d checks, %d failures", len(results), bad)
		if bad > 0 {
			failed = true
		}
	}

	if *tcp {
		drifts := testkit.VerifyTCP(progress)
		for _, d := range drifts {
			fail("tcp drift: %s", d)
		}
		report("tcp golden: %d scenarios over 3 localhost ranks, %d drifts", len(testkit.TCPScenarios()), len(drifts))
	}

	if *soak {
		dir := *soakDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "kgeverify-soak-")
			if err != nil {
				fail("kgeverify: %v", err)
				os.Exit(1)
			}
			defer func() { _ = os.RemoveAll(tmp) }()
			dir = tmp
		}
		rep, err := testkit.Soak(testkit.SoakConfig{
			Seed: *seed, Iters: *iters, Dir: dir, Report: progress,
		})
		if err != nil {
			fail("soak: %v", err)
		}
		if rep != nil {
			report("soak: %d/%d iterations, %d faults injected, %d recoveries (GOMAXPROCS=%d)",
				len(rep.Iterations), *iters, rep.FaultsInjected, rep.Recoveries, runtime.GOMAXPROCS(0))
		}
	}

	if failed {
		// Leave a pointer to the update flow when goldens are what failed —
		// the most common legitimate cause is an intentional change.
		fmt.Fprintf(os.Stderr, "kgeverify: FAILED (if a change to training numerics is intentional, regenerate with: go run ./cmd/kgeverify -update -goldens %s)\n", filepath.ToSlash(*goldens))
		os.Exit(1)
	}
	fmt.Println("kgeverify: OK")
}
