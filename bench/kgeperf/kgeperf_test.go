package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for kgeperf when the multi-process
// workload re-executes it as a rank.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		if err := runChild(raw); err != nil {
			fmt.Fprintln(os.Stderr, "kgeperf rank:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {240, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedPercentile(tc.n); got != tc.want { //kgelint:ignore floateq ladder values are exact constants
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got, want := spread([]float64{3, 1, 2}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: msec(100)},
		{ID: 1, Parent: 0, Name: "child", Start: msec(10), End: msec(40)},
		{ID: 2, Parent: 0, Name: "child", Start: msec(30), End: msec(60)}, // overlaps the first child
		{ID: 3, Parent: 0, Name: "late", Start: msec(90), End: msec(120)}, // runs past its parent
		{ID: 4, Parent: 1, Name: "leaf", Start: msec(15), End: msec(20)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  msec(100 - 50 - 10), // children cover [10,60) once and [90,100)
		"child": msec(30-5) + msec(30),
		"late":  msec(30),
		"leaf":  msec(5),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerWritesLoadableChromeTrace(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("root", -1, 0)
	tr.end(tr.begin("inner", root, 0))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args["parent"] != float64(root) {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored", -1, 0)) // the untraced path must be a no-op
}

// One stalled request must show up in the latency of the requests that were
// due while it blocked the only worker — that is what timing from the due
// time (and not from the send) buys.
func TestDueTimeLatencyCountsAStall(t *testing.T) {
	const rate, stallAt = 200.0, 5
	stall := 60 * time.Millisecond
	var order []int
	ps := openLoop("stall", rate, 200*time.Millisecond, 1, 0, func(i, _ int) opResult {
		order = append(order, i)
		if i == stallAt {
			time.Sleep(stall)
		}
		return opResult{ok: true, bytes: 1}
	}, nil)
	if ps.sent != 40 || ps.ok != 40 {
		t.Fatalf("sent %d ok %d, want every one of the 40 scheduled operations (no dropped ticks)", ps.sent, ps.ok)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("operations ran out of order: %v", order)
	}
	// Operation 6 was due 5 ms after operation 5 and did no work of its own,
	// yet the only worker could not send it before the stall ended: at least
	// stall minus one interval after it was due, however loaded the box is.
	next := stallAt + 1
	floor := ms(stall) - 1e3/rate
	if ps.latMS[next] < floor || ps.lateMS[next] < floor {
		t.Errorf("op %d: latency %.1f ms, lateness %.1f ms; want both to include the %.0f ms it waited", next, ps.latMS[next], ps.lateMS[next], floor)
	}
	if ps.latMS[stallAt-1] >= ps.latMS[next] {
		t.Errorf("op before the stall has latency %.1f ms, the one after it %.1f ms; want the stall charged to the later one only",
			ps.latMS[stallAt-1], ps.latMS[next])
	}
	// Operations 5 to 12 were sent at least 60, 55, ... 25 ms after they were
	// due, so at most 32 of the 40 can be inside a 20 ms limit.
	if got := ps.okWithin(20); got > 0.8 {
		t.Errorf("okWithin(20ms) = %.2f; the eight delayed operations should miss the limit", got)
	}
}

func TestFailedRequestMissesEveryLimit(t *testing.T) {
	ps := closedLoop("fail", 20*time.Millisecond, 1, 0, func(i, _ int) opResult {
		time.Sleep(time.Millisecond)
		return opResult{ok: i%2 == 0}
	}, nil)
	if ps.failed == 0 || ps.ok == 0 {
		t.Fatalf("want a mix of outcomes, got ok=%d failed=%d", ps.ok, ps.failed)
	}
	if got, want := ps.okWithin(1e12), float64(ps.ok)/float64(ps.sent); math.Abs(got-want) > 1e-12 {
		t.Errorf("okWithin(inf) = %v, want ok/sent = %v: a failure counts as a miss", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "m", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		m        metricSpec
		a, b     float64
		sa, sb   float64
		aa       bool
		expected string
	}{
		{lower, 100, 105, 0, 0, false, verdictWithin},
		{lower, 100, 115, 0, 0, false, verdictRegressed},
		{lower, 100, 85, 0, 0, false, verdictImproved},
		{higher, 100, 85, 0, 0, false, verdictRegressed},
		{higher, 100, 115, 0, 0, false, verdictImproved},
		{lower, 100, 115, 0.2, 0.01, false, verdictUnresolved},
		{lower, 100, 85, 0, 0, true, verdictDiffers},
		{lower, 100, 104, 0, 0, true, verdictWithin},
	} {
		if got := judge(tc.m, tc.a, tc.b, tc.sa, tc.sb, tc.aa); got != tc.expected {
			t.Errorf("judge(%s %v->%v spreads %v,%v aa=%t) = %q, want %q", tc.m.Better, tc.a, tc.b, tc.sa, tc.sb, tc.aa, got, tc.expected)
		}
	}
}

func TestWorseByZeroBaseline(t *testing.T) {
	if got := worseBy(0, 0, "lower"); got != 0 { //kgelint:ignore floateq exact by construction
		t.Errorf("worseBy(0,0) = %v, want 0", got)
	}
	if got := worseBy(0, 0.01, "lower"); !math.IsInf(got, 1) {
		t.Errorf("a failure share rising from 0 is worse by %v, want +Inf", got)
	}
	if got := worseBy(0, 0.01, "higher"); !math.IsInf(got, -1) {
		t.Errorf("a higher-is-better metric rising from 0 is worse by %v, want -Inf", got)
	}
	m := metricSpec{Name: "m", Better: "lower", Bound: 0.25}
	if got := judge(m, 0, 0.01, 0, 0, false); got != verdictRegressed {
		t.Errorf("judge from a zero baseline = %q, want %q", got, verdictRegressed)
	}
}

// trainResult is a train_dense result as a run stores it: the issue's names,
// each quantity once.
func trainResult(wallS, mrr float64) result {
	return result{Workload: "train_dense", Seed: 1, Correct: true, Attempted: 4, Metrics: map[string]metric{
		"setup_s": {Value: 0.1, Unit: "s"}, "train_wall_s": {Value: wallS, Unit: "s"}, "epochs_per_job": {Value: 4, Unit: "count"},
		"triples_per_s": {Value: 4 * 216000 / wallS, Unit: "1/s"}, "test_mrr": {Value: mrr, Unit: "ratio"},
		"test_tca_pct": {Value: 80, Unit: "%"}, "comm_mb": {Value: 1946, Unit: "MB"}, "failed_share": {Value: 0, Unit: "share"},
		"peak_rss_mb": {Value: 80, Unit: "MB"}, "model_time_s": {Value: 1.25, Unit: "s"},
	}}
}

func TestContractMetricsDeriveFromIssueNames(t *testing.T) {
	r := trainResult(4, 0.04)
	view, err := contractMetrics(&r)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"op_p50_ms": 1000, "ops_per_s": 216000, "wire_kb_per_op": 486500, "slo_ok_share": 1, "setup_s": 0.1} {
		if got := view[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(view) != len(endToEnd) {
		t.Errorf("view has %d metrics, want the %d end-to-end ones", len(view), len(endToEnd))
	}
	delete(r.Metrics, "train_wall_s")
	if _, err := contractMetrics(&r); err == nil {
		t.Error("a result without train_wall_s still yielded op_p50_ms")
	}
}

// The A/A gate must not fail on a metric the host makes noisy: with enough
// runs per side to see the spread, such a metric is unresolved; a steady one
// that moved is caught; and a deterministic output that moved at all is
// caught whatever its bound.
func TestSelfCheckVerdicts(t *testing.T) {
	side := func(walls []float64, mrr float64) *resultFile {
		f := &resultFile{Schema: resultSchema}
		for _, w := range walls {
			f.Results = append(f.Results, trainResult(w, mrr))
		}
		return f
	}
	var sink strings.Builder
	noisy := compareResults(&sink, side([]float64{4, 6, 3, 7}, 0.04), side([]float64{8, 5, 9, 4}, 0.04), true)
	if noisy {
		t.Errorf("a metric with a spread above its bound failed the A/A gate:\n%s", sink.String())
	}
	if !strings.Contains(sink.String(), verdictUnresolved) {
		t.Errorf("want the noisy metric reported as %q:\n%s", verdictUnresolved, sink.String())
	}
	sink.Reset()
	if !compareResults(&sink, side([]float64{4, 4.01, 4.02, 4.03}, 0.04), side([]float64{8, 8.01, 8.02, 8.03}, 0.04), true) {
		t.Errorf("a steady metric that doubled passed the A/A gate:\n%s", sink.String())
	}
	sink.Reset()
	a, b := side([]float64{4, 4, 4, 4}, 0.04), side([]float64{4, 4, 4, 4}, 0.04)
	if inexact(&sink, append(a.Results, b.Results...)) {
		t.Errorf("identical runs reported as drifting:\n%s", sink.String())
	}
	b.Results[2].Metrics["test_mrr"] = metric{Value: math.Nextafter(0.04, 1), Unit: "ratio"}
	if !inexact(&sink, append(a.Results, b.Results...)) {
		t.Error("a one-ulp change of test_mrr between runs of one seed went unnoticed")
	}
}

func TestRandomMRR(t *testing.T) {
	if got, want := randomMRR(4), (1+1.0/2+1.0/3+1.0/4)/4; math.Abs(got-want) > 1e-15 {
		t.Errorf("randomMRR(4) = %v, want %v", got, want)
	}
	// 12 000 entities: the floor the training workloads must clear.
	if got := learnedMRRFactor * randomMRR(12000); got < 0.008 || got > 0.009 {
		t.Errorf("learned floor at 12000 entities = %v, want about 0.0083", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads; spec.go is what the program
// reports. They must say the same thing, within the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	equal := func(kind string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("%s in BENCHMARK.json differ from spec.go:\n json: %s\n spec: %s", kind, g, w)
		}
	}
	equal("workloads", doc.Workloads, workloads)
	equal("end_to_end", doc.EndToEnd, endToEnd)
	equal("per_layer", doc.PerLayer, perLayer)

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid contract name", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		unique(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v violates the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, better lower")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for name := range carried {
		if !seen[name] && !slices.ContainsFunc(perLayer, func(m metricSpec) bool { return m.Name == name }) {
			t.Errorf("carried metric %q is not a per-layer metric", name)
		}
	}
	for _, m := range perLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v violates the contract", m)
		}
	}
}

func TestResultSchemaFieldNames(t *testing.T) {
	r := result{Workload: "w", Metrics: map[string]metric{"m": {Value: 1, Unit: "s"}}, Checks: []check{{Name: "c", OK: true}}}
	buf, err := json.Marshal(resultFile{Schema: resultSchema, Results: []result{r}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	wantKeys := func(what string, obj map[string]any, keys ...string) {
		for _, k := range keys {
			if _, ok := obj[k]; !ok {
				t.Errorf("%s lacks field %q: %v", what, k, obj)
			}
		}
	}
	wantKeys("result file", doc, "schema", "host", "results")
	wantKeys("host", doc["host"].(map[string]any), "cpu_model", "nproc", "gomaxprocs", "go_version", "commit", "load_avg_1m", "busy_at_start")
	one := doc["results"].([]any)[0].(map[string]any)
	wantKeys("result", one, "workload", "seed", "seconds", "traced", "smoke", "correct", "attempted", "failed", "checks", "metrics")
	wantKeys("metric", one["metrics"].(map[string]any)["m"].(map[string]any), "value", "unit")
}

// The contract's last line: exactly four keys, and exactly the end-to-end
// (or, traced, the per-layer) metrics.
func checkContractLine(t *testing.T, r *result) {
	t.Helper()
	line, err := contractJSON(r)
	if err != nil {
		t.Fatalf("%s: %v", r.Workload, err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 {
		t.Errorf("%s: contract line has %d keys, want correct, attempted, failed, metrics", r.Workload, len(doc))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var specs []metricSpec
	for _, s := range endToEnd {
		specs = append(specs, s.metricSpec)
	}
	if r.Traced {
		specs = perLayer
	}
	if len(metrics) != len(specs) {
		t.Errorf("%s: contract line has %d metrics, want %d", r.Workload, len(metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := metrics[s.Name]
		if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %t), want a finite value in %s", r.Workload, s.Name, m, ok, s.Unit)
		}
		if !r.Traced && m.Value == 0 {
			t.Errorf("%s: end-to-end metric %s is 0; the contract wants metrics that never are", r.Workload, s.Name)
		}
	}
}

// Every workload end to end at tiny sizes — including the re-exec'd rank
// processes over loopback TCP — and two of them traced.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		r, err := runWorkload(runOptions{workload: w.Name, seed: 3, seconds: 0.3, smoke: true, buildDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d checks=%+v", w.Name, r.Correct, r.Attempted, r.Failed, r.Checks)
		}
		checkContractLine(t, r)
	}
	for _, name := range []string{"train_dense_tcp", "serve_approx"} {
		r, err := runWorkload(runOptions{workload: name, seed: 3, seconds: 0.3, smoke: true, traced: true, buildDir: dir})
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !r.Correct {
			t.Errorf("%s traced: checks %+v", name, r.Checks)
		}
		checkContractLine(t, r)
		var sum float64
		for _, layer := range layers {
			sum += r.Metrics["run.share_"+layer].Value
		}
		if got := sum + r.Metrics["run.unattributed_share"].Value; math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: layer shares plus unattributed = %v, want 1 by construction", name, got)
		}
		if _, err := os.Stat(r.TracePath); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}
