// Command kgeperf is the repository's benchmark: wall-clock end-to-end
// metrics for training and serving workloads, with per-layer probes from a
// separate traced run. BENCHMARK.json at the repository root names it as the
// benchmark command; bench/README.md defines every workload and metric.
//
//	kgeperf -workload train_dense -seed 1 -seconds 10 -trace 0
//	kgeperf -workload all -seed 1 -out results.json
//	kgeperf -selfcheck
//	kgeperf -compare parent.json change.json
//
// Every metric is printed as "workload metric value unit"; the last line of
// a single-workload run is the benchmark contract's JSON object.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := runChild(raw); err != nil {
			fmt.Fprintln(os.Stderr, "kgeperf rank:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("kgeperf", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload name, or all")
		seed      = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds   = fs.Float64("seconds", 10, "how long one run measures")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
		traceOut  = fs.String("trace-out", "", "Chrome trace-event JSON path for -trace 1 (default <build-dir>/trace_<workload>.json)")
		outPath   = fs.String("out", "", "result JSON path (default <build-dir>/result_<workload>.json)")
		buildDir  = fs.String("build-dir", ".bench_build", "directory for scratch files and default outputs")
		smoke     = fs.Bool("smoke", false, "tiny sizes: exercises every code path in seconds, numbers mean nothing")
		repeat    = fs.Int("repeat", 1, "with -workload all: runs per workload, seeds seed..seed+repeat-1")
		selfcheck = fs.Bool("selfcheck", false, "run every workload twice on this build and fail if any end-to-end metric differs by more than its bound")
		compare   = fs.Bool("compare", false, "compare two result files: kgeperf -compare a.json b.json")
		spec      = fs.Bool("spec", false, "print BENCHMARK.json as spec.go defines it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "kgeperf:", err)
		return 1
	}

	switch {
	case *spec:
		buf, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(buf))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *selfcheck:
		ok, err := selfCheck(*seed, *seconds, *smoke, *buildDir)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *workload == "":
		fs.Usage()
		return 2
	case *workload == "all":
		path := *outPath
		if path == "" {
			path = filepath.Join(*buildDir, "result_all.json")
		}
		f, err := runAll(*seed, *seconds, *trace == 1, *smoke, *repeat, *buildDir)
		if err != nil {
			return fail(err)
		}
		if err := writeResultFile(path, f); err != nil {
			return fail(err)
		}
		for _, r := range f.Results {
			if !r.Correct {
				return fail(fmt.Errorf("workload %s (seed %d) failed its correctness checks", r.Workload, r.Seed))
			}
		}
		return 0
	}

	host := fingerprint()
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s load1=%.2f\n",
		host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.LoadAvg1)
	if host.Busy {
		fmt.Println("host WARNING: load average above 1 at start; timings are suspect")
	}
	res, err := runWorkload(runOptions{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		smoke: *smoke, traceOut: *traceOut, buildDir: *buildDir})
	if err != nil {
		return fail(err)
	}
	printMetrics(os.Stdout, res)
	path := *outPath
	if path == "" {
		path = filepath.Join(*buildDir, "result_"+*workload+".json")
	}
	if err := writeResultFile(path, &resultFile{Schema: resultSchema, Host: host, Results: []result{*res}}); err != nil {
		return fail(err)
	}
	line, err := contractJSON(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(line)
	return 0
}

// runAll runs every workload, each in a process of its own so that peak
// memory and GC state belong to that workload alone, and gathers the
// results.
func runAll(seed uint64, seconds float64, traced, smoke bool, repeat int, buildDir string) (*resultFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	all := &resultFile{Schema: resultSchema, Host: fingerprint()}
	for rep := 0; rep < max(repeat, 1); rep++ {
		for _, w := range workloads {
			tmp := filepath.Join(buildDir, fmt.Sprintf("result_%s_%d.json", w.Name, os.Getpid()))
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed + uint64(rep)), "-seconds", fmt.Sprint(seconds),
				"-out", tmp, "-build-dir", buildDir}
			if traced {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("workload %s: %w", w.Name, err)
			}
			one, err := readResultFile(tmp)
			if err != nil {
				return nil, err
			}
			if err := os.Remove(tmp); err != nil {
				return nil, err
			}
			all.Results = append(all.Results, one.Results...)
		}
	}
	return all, nil
}
