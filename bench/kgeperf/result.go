package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// resultSchema versions the result file so -compare can refuse a file it
// does not understand.
const resultSchema = "kgeperf/v1"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness assertion the workload made about its outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Smoke     bool              `json:"smoke"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`
	TracePath string            `json:"trace_path,omitempty"`
}

// resultFile is what -out writes and -compare reads: the host fingerprint
// and one result per run (a workload may appear several times, once per
// repeat, which is what gives -compare a spread).
type resultFile struct {
	Schema  string   `json:"schema"`
	Host    hostInfo `json:"host"`
	Results []result `json:"results"`
}

func writeResultFile(path string, f *resultFile) error {
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// printMetrics writes one "workload metric value unit" line per metric, in
// name order, so two runs diff cleanly.
func printMetrics(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%s check:%s %s %s\n", r.Workload, c.Name, status, c.Detail)
	}
}

// contractLine is the benchmark contract's last stdout line: exactly the
// keys correct, attempted, failed and metrics, with every end-to-end metric
// (untraced run) or every per-layer metric (traced run) and nothing else.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractMetrics is the contract's view of one result: every end-to-end
// metric derived from the run's own metrics (untraced run), or every
// per-layer metric (traced run). It fails when the run did not report a
// metric the view needs.
func contractMetrics(r *result) (map[string]metric, error) {
	_, train := findTrainSpec(r.Workload)
	out := map[string]metric{}
	if !r.Traced {
		read := func(name string) float64 {
			if m, ok := r.Metrics[name]; ok {
				return m.Value
			}
			return math.NaN()
		}
		for _, s := range endToEnd {
			d := s.serve
			if train {
				d = s.train
			}
			v := d(read)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("workload %s: %s cannot be derived from what the run reported", r.Workload, s.Name)
			}
			out[s.Name] = metric{Value: v, Unit: s.Unit}
		}
		return out, nil
	}
	for _, s := range perLayer {
		from := s.Name
		if c, ok := carried[s.Name]; ok {
			if (c.kind == "train") != train {
				out[s.Name] = metric{Value: 0, Unit: s.Unit}
				continue
			}
			from = c.from
		}
		m, ok := r.Metrics[from]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", r.Workload, from)
		}
		out[s.Name] = metric{Value: m.Value, Unit: s.Unit}
	}
	return out, nil
}

func contractJSON(r *result) (string, error) {
	metrics, err := contractMetrics(r)
	if err != nil {
		return "", err
	}
	buf, err := json.Marshal(contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
	if err != nil {
		return "", err
	}
	return string(buf), nil
}
