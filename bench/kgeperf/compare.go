package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Verdicts of one (workload, metric) pairing.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "DIFFERS" // A/A gate: same build, outside the bound either way
)

// minSpreadSamples is how many runs of a workload a file needs before its
// interquartile spread means anything.
const minSpreadSamples = 4

// judge classifies how b's median compares with a's for one metric.
// spreadA and spreadB are the sides' interquartile spreads as shares of
// their medians (0 when a side has too few runs to tell): where either
// exceeds the bound the comparison cannot resolve a change of that size.
// With aa set the two sides are the same build, so a difference beyond the
// bound in either direction is a failure of the benchmark's steadiness.
func judge(m metricSpec, a, b, spreadA, spreadB float64, aa bool) string {
	if math.Max(spreadA, spreadB) > m.Bound {
		return verdictUnresolved
	}
	worse := worseBy(a, b, m.Better)
	switch {
	case aa && math.Abs(worse) > m.Bound:
		return verdictDiffers
	case worse > m.Bound:
		return verdictRegressed
	case worse < -m.Bound && !aa:
		return verdictImproved
	}
	return verdictWithin
}

// samples collects one end-to-end metric's values over every untraced run
// of one workload in f.
func samples(f *resultFile, workload, name string) []float64 {
	var xs []float64
	for i := range f.Results {
		r := &f.Results[i]
		if r.Workload != workload || r.Traced {
			continue
		}
		if view, err := contractMetrics(r); err == nil {
			xs = append(xs, view[name].Value)
		}
	}
	return xs
}

// compareResults prints one row per (workload, end-to-end metric) present
// on both sides — medians, the ratio with its base, each side's spread and
// the verdict — and reports whether any row regressed (or, for an A/A
// comparison, differed).
func compareResults(w io.Writer, a, b *resultFile, aa bool) bool {
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		fmt.Fprintf(w, "WARNING: different hosts (%s x%d vs %s x%d); timings do not compare\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	if a.Host.Busy || b.Host.Busy {
		fmt.Fprintln(w, "WARNING: a side started with load average above 1; timings are suspect")
	}
	bad := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			var sa, sb float64
			if len(xa) >= minSpreadSamples {
				sa = spread(xa)
			}
			if len(xb) >= minSpreadSamples {
				sb = spread(xb)
			}
			verdict := judge(m.metricSpec, ma, mb, sa, sb, aa)
			if verdict == verdictRegressed || verdict == verdictDiffers {
				bad = true
			}
			ratio := math.NaN()
			if ma != 0 {
				ratio = mb / ma
			}
			fmt.Fprintf(w, "%-18s %-15s a=%.6g b=%.6g %s  b/a=%.4f (base a=%.6g %s)  spread a=%.1f%% b=%.1f%% (n=%d,%d)  bound=%.0f%% better=%s  %s\n",
				wl.Name, m.Name, ma, mb, m.Unit, ratio, ma, m.Unit, 100*sa, 100*sb, len(xa), len(xb), 100*m.Bound, m.Better, verdict)
		}
	}
	return bad
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b, false), nil
}

// selfCheckRuns is how many runs of every workload each side of the A/A
// gate gets: enough for a spread, so a metric the host makes noisy reads
// "unresolved" and only a steady metric can fail the gate.
const selfCheckRuns = minSpreadSamples

// exactPerSeed are the outputs that are a pure function of the seed: two
// runs of one build and seed must agree on them to the last bit.
var exactPerSeed = []string{"model_time_s", "comm_mb", "test_mrr", "test_tca_pct", "final_loss", "recall_at_10"}

// selfCheck is the A/A gate: selfCheckRuns runs of every workload per side,
// same build, same seed, the sides taking turns so that host drift lands on
// both. It fails when a side's median of a steady end-to-end metric differs
// from the other's by more than the metric's bound, when a correctness
// check fails, or when a deterministic output is not bit-equal across runs.
func selfCheck(seed uint64, seconds float64, smoke bool, buildDir string) (bool, error) {
	sets := [2]*resultFile{{Schema: resultSchema}, {Schema: resultSchema}}
	for i := 0; i < 2*selfCheckRuns; i++ {
		side := i % 2
		fmt.Printf("selfcheck: side %c, run %d of %d\n", 'a'+side, i/2+1, selfCheckRuns)
		f, err := runAll(seed, seconds, false, smoke, 1, buildDir)
		if err != nil {
			return false, err
		}
		for _, r := range f.Results {
			if !r.Correct {
				return false, fmt.Errorf("workload %s failed its correctness checks", r.Workload)
			}
		}
		sets[side].Host = f.Host
		sets[side].Results = append(sets[side].Results, f.Results...)
	}
	for i, f := range sets {
		if err := writeResultFile(filepath.Join(buildDir, fmt.Sprintf("selfcheck_%c.json", 'a'+i)), f); err != nil {
			return false, err
		}
	}
	differs := compareResults(os.Stdout, sets[0], sets[1], true)
	drift := inexact(os.Stdout, slices.Concat(sets[0].Results, sets[1].Results))
	switch {
	case differs:
		fmt.Println("selfcheck: FAILED — the same build disagrees with itself beyond a metric's bound")
	case drift:
		fmt.Println("selfcheck: FAILED — a deterministic output differs between runs of one seed")
	default:
		fmt.Println("selfcheck: ok")
	}
	return !differs && !drift, nil
}

// inexact reports (and prints) every deterministic output on which two runs
// of the same workload and seed disagree.
func inexact(w io.Writer, results []result) bool {
	type key struct {
		workload, name string
		seed           uint64
	}
	first := map[key]float64{}
	bad := false
	for _, r := range results {
		for _, name := range exactPerSeed {
			m, ok := r.Metrics[name]
			if !ok {
				continue
			}
			k := key{r.Workload, name, r.Seed}
			if v, seen := first[k]; !seen {
				first[k] = m.Value
			} else if math.Float64bits(v) != math.Float64bits(m.Value) {
				bad = true
				fmt.Fprintf(w, "%-18s %-15s seed %d: %v != %v  NOT DETERMINISTIC\n", r.Workload, name, r.Seed, v, m.Value)
			}
		}
	}
	return bad
}
