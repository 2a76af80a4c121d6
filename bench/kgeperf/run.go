package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runEnv is everything one workload run needs to know.
type runEnv struct {
	seed    uint64
	seconds float64
	smoke   bool
	tr      *tracer // nil on the untraced run
	workdir string  // scratch directory inside the checkout, removed after the run
	self    string  // this executable, re-executed for rank processes
}

// setupReps is how many times a run repeats its set-up so setup_s can be a
// median.
func (e *runEnv) setupReps() int {
	if e.smoke {
		return 1
	}
	return 9
}

// outcome is what a workload run hands back: its metrics, its operation
// counts, its correctness checks, and the inputs of the time attribution.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	checks    []check

	opSeconds    float64 // median wall time of one operation
	allocMBPerOp float64 // heap allocated per operation
	gcCycles     int64   // GC cycles inside the timed calls
	bill         bill    // units of each probe metric one operation consumes
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) addCheck(c check) { o.checks = append(o.checks, c) }

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0 && o.attempted > 0
}

// dispatch runs the named workload once under env.
func dispatch(env *runEnv, name string) (*outcome, error) {
	if spec, ok := findTrainSpec(name); ok {
		return runTrain(env, spec)
	}
	if spec, ok := findServeSpec(name); ok {
		return runServe(env, spec)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOptions are the command-line choices for one workload run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	traceOut string // Chrome trace path for a traced run
	buildDir string // directory for scratch files and default outputs
}

// runWorkload is the benchmark proper. An untraced run measures the
// end-to-end metrics. A traced run measures the workload twice for half the
// time each — tracing off, then on — so the tracing overhead is known, then
// replays the layers through their public functions (probes.go) and
// attributes the workload's operation time to them.
func runWorkload(opt runOptions) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	if err := os.MkdirAll(opt.buildDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", opt.buildDir, err)
	}
	workdir, err := os.MkdirTemp(opt.buildDir, "work-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(workdir) //kgelint:ignore droppederr best-effort scratch cleanup

	env := &runEnv{seed: opt.seed, seconds: opt.seconds, smoke: opt.smoke, workdir: workdir, self: self}
	res := &result{Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced, Smoke: opt.smoke}

	if !opt.traced {
		out, err := dispatch(env, opt.workload)
		if err != nil {
			return nil, err
		}
		res.fill(out)
		return res, nil
	}

	env.seconds = opt.seconds / 2
	plain, err := dispatch(env, opt.workload)
	if err != nil {
		return nil, err
	}
	env.tr = newTracer(opt.workload)
	traced, err := dispatch(env, opt.workload)
	if err != nil {
		return nil, err
	}
	res.fill(traced)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.correct()
	res.Checks = append(res.Checks, plain.checks...)

	probes, sh, err := runProbes(env)
	if err != nil {
		return nil, err
	}
	for name, p := range probes {
		res.Metrics[name] = metric{Value: p.value, Unit: p.unit}
	}
	for name, m := range attribute(traced, plain, probes, sh) {
		res.Metrics[name] = m
	}

	// What the workload's root span does not hand to a child span is the
	// harness's own work between the calls it times.
	spans := env.tr.snapshot()
	rootName := "workload:" + opt.workload
	var rootDur time.Duration
	for _, s := range spans {
		if s.Name == rootName {
			rootDur += s.End - s.Start
		}
	}
	harness := 0.0
	if rootDur > 0 {
		harness = float64(selfTimes(spans)[rootName]) / float64(rootDur)
	}
	res.Metrics["run.harness_self_share"] = metric{Value: harness, Unit: "share"}

	path := opt.traceOut
	if path == "" {
		path = filepath.Join(opt.buildDir, "trace_"+opt.workload+".json")
	}
	if err := writeChrome(path, spans); err != nil {
		return nil, err
	}
	res.TracePath = path
	return res, nil
}

func (r *result) fill(o *outcome) {
	r.Correct = o.correct()
	r.Attempted = o.attempted
	r.Failed = o.failed
	r.Checks = o.checks
	r.Metrics = o.metrics
}
