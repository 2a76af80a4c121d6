package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kgedist/internal/eval"
	"kgedist/internal/kg"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// newTestServer builds a server over a fresh random checkpoint plus the
// httptest front end. Returns the server, its base URL, and the dataset
// whose filter index it serves.
func newTestServer(t *testing.T, cacheSize int) (*Server, string, *kg.Dataset) {
	t.Helper()
	dir := t.TempDir()
	path := writeCheckpoint(t, dir, "complex", 4, 30, 4, 9)
	d := &kg.Dataset{
		NumEntities:  30,
		NumRelations: 4,
		Train: []kg.Triple{
			{H: 0, R: 0, T: 1}, {H: 0, R: 0, T: 2}, {H: 5, R: 1, T: 6},
			{H: 7, R: 2, T: 8}, {H: 9, R: 3, T: 10},
		},
	}
	s, err := New(Config{
		CheckpointPath: path,
		ShardRows:      8,
		CacheSize:      cacheSize,
		MaxBatch:       8,
		BatchWindow:    500 * time.Microsecond,
		Filter:         kg.NewFilterIndex(d),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL, d
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close() //kgelint:ignore droppederr read-only close
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close() //kgelint:ignore droppederr read-only close
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

func TestScoreEndpoint(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	var resp scoreResponse
	status, raw := postJSON(t, url+"/v1/score", map[string]any{
		"triples": []map[string]int{{"h": 0, "r": 0, "t": 1}, {"h": 3, "r": 2, "t": 7}},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Model != "complex" || len(resp.Scores) != 2 {
		t.Fatalf("resp %+v", resp)
	}
	st := s.Store()
	for i, tr := range []TripleRef{{0, 0, 1}, {3, 2, 7}} {
		want := st.Score(tr.H, tr.R, tr.T)
		if math.Abs(float64(resp.Scores[i]-want)) > 1e-6 {
			t.Fatalf("score %d = %g, want %g", i, resp.Scores[i], want)
		}
	}
	// Out-of-range ids are a 400, not a panic.
	if status, _ := postJSON(t, url+"/v1/score", map[string]any{
		"triples": []map[string]int{{"h": 999, "r": 0, "t": 1}},
	}, nil); status != http.StatusBadRequest {
		t.Fatalf("oob status %d", status)
	}
	if status, _ := postJSON(t, url+"/v1/score", map[string]any{"triples": []map[string]int{}}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty status %d", status)
	}
}

func TestPredictEndpoint(t *testing.T) {
	s, url, d := newTestServer(t, 0)
	st := s.Store()
	m := st.Model()

	var resp predictResponse
	status, raw := postJSON(t, url+"/v1/predict", map[string]any{
		"head": 0, "relation": 0, "k": 5,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Side != "tail" || len(resp.Completions) != 5 {
		t.Fatalf("resp %+v", resp)
	}
	// Oracle: brute-force tail ranking.
	type es struct {
		e int
		s float32
	}
	var all []es
	for e := 0; e < st.NumEntities(); e++ {
		all = append(all, es{e, m.ScoreRows(st.EntityRow(0), st.RelationRow(0), st.EntityRow(e))})
	}
	best := all[0]
	for _, c := range all[1:] {
		if c.s > best.s {
			best = c
		}
	}
	if int(resp.Completions[0].Entity) != best.e {
		t.Fatalf("top completion %d, oracle %d", resp.Completions[0].Entity, best.e)
	}
	for i := 1; i < len(resp.Completions); i++ {
		if resp.Completions[i].Score > resp.Completions[i-1].Score {
			t.Fatalf("completions not sorted: %+v", resp.Completions)
		}
	}

	// Filtered: known facts (0,0,1) and (0,0,2) must not appear.
	var filt predictResponse
	status, raw = postJSON(t, url+"/v1/predict", map[string]any{
		"head": 0, "relation": 0, "k": st.NumEntities(), "filtered": true,
	}, &filt)
	if status != http.StatusOK {
		t.Fatalf("filtered status %d: %s", status, raw)
	}
	for _, c := range filt.Completions {
		for _, tr := range d.Train {
			if tr.H == 0 && tr.R == 0 && c.Entity == tr.T {
				t.Fatalf("filtered ranking returned known fact tail %d", c.Entity)
			}
		}
	}
	if len(filt.Completions) != st.NumEntities()-2 {
		t.Fatalf("filtered returned %d of %d candidates", len(filt.Completions), st.NumEntities()-2)
	}

	// Head-side completion.
	var head predictResponse
	if status, raw := postJSON(t, url+"/v1/predict", map[string]any{
		"tail": 1, "relation": 0, "k": 3,
	}, &head); status != http.StatusOK || head.Side != "head" {
		t.Fatalf("head predict %d %s %+v", status, raw, head)
	}

	// Validation errors.
	for name, body := range map[string]map[string]any{
		"both slots":  {"head": 0, "tail": 1, "relation": 0},
		"no slots":    {"relation": 0},
		"no relation": {"head": 0},
		"oob entity":  {"head": 999, "relation": 0},
		"oob rel":     {"head": 0, "relation": 99},
	} {
		if status, _ := postJSON(t, url+"/v1/predict", body, nil); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d", name, status)
		}
	}
}

// A body past the 1 MiB cap is answered 413 before it is decoded, and the
// server keeps serving: the next request succeeds.
func TestOversizedBodyIs413(t *testing.T) {
	_, url, _ := newTestServer(t, 0)
	body := append(bytes.Repeat([]byte(" "), 2<<20), `{"head":0,"relation":0,"k":3}`...)
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close() //kgelint:ignore droppederr read-only close
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var ok predictResponse
	if status, raw := postJSON(t, url+"/v1/predict", map[string]any{"head": 0, "relation": 0, "k": 3}, &ok); status != http.StatusOK || len(ok.Completions) != 3 {
		t.Fatalf("request after the 413: status %d %s", status, raw)
	}
}

func TestNeighborsEndpoint(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	var resp neighborsResponse
	status, raw := postJSON(t, url+"/v1/neighbors", map[string]any{"entity": 3, "k": 4}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if len(resp.Neighbors) != 4 || resp.Metric != "cosine" {
		t.Fatalf("resp %+v", resp)
	}
	want, err := s.Store().Neighbors(3, 4, "cosine")
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range resp.Neighbors {
		if n.Entity != want[i].Entity {
			t.Fatalf("neighbor %d = %d, want %d", i, n.Entity, want[i].Entity)
		}
	}
	if status, _ := postJSON(t, url+"/v1/neighbors", map[string]any{"entity": -1}, nil); status != http.StatusBadRequest {
		t.Fatalf("oob entity status %d", status)
	}
	// A k far past the table is every other entity, not a k-sized heap per
	// sweep worker (1<<50 makes that allocation fail outright).
	var all neighborsResponse
	if status, raw := postJSON(t, url+"/v1/neighbors", map[string]any{"entity": 3, "k": 1 << 50}, &all); status != http.StatusOK {
		t.Fatalf("k = 1<<50: status %d: %s", status, raw)
	}
	if len(all.Neighbors) != s.Store().NumEntities()-1 {
		t.Fatalf("k = 1<<50: %d neighbors, want %d", len(all.Neighbors), s.Store().NumEntities()-1)
	}
}

func TestPredictCaching(t *testing.T) {
	s, url, _ := newTestServer(t, 256)
	body := map[string]any{"head": 0, "relation": 0, "k": 5}
	var first, second predictResponse
	postJSON(t, url+"/v1/predict", body, &first)
	postJSON(t, url+"/v1/predict", body, &second)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached response differs: %+v vs %+v", first, second)
	}
	cs := s.state.Load().cache.Stats()
	if cs.Hits < 1 {
		t.Fatalf("no cache hit recorded: %+v", cs)
	}
	metricsOut := getBody(t, url+"/metrics")
	if !strings.Contains(metricsOut, "kgeserve_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hits:\n%s", metricsOut)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, url, _ := newTestServer(t, 16)
	postJSON(t, url+"/v1/score", map[string]any{"triples": []map[string]int{{"h": 0, "r": 0, "t": 1}}}, nil)
	postJSON(t, url+"/v1/predict", map[string]any{"head": 0, "relation": 0}, nil)
	postJSON(t, url+"/v1/neighbors", map[string]any{"entity": 0}, nil)

	var health healthResponse
	if err := json.Unmarshal([]byte(getBody(t, url+"/healthz")), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if health.Status != "ok" || health.Checkpoint.Model != "complex" || health.Checkpoint.CRC == "" {
		t.Fatalf("healthz %+v", health)
	}
	if health.Checkpoint.CRC != s.Store().Info().CRC {
		t.Fatalf("healthz CRC %s != store %s", health.Checkpoint.CRC, s.Store().Info().CRC)
	}

	out := getBody(t, url+"/metrics")
	for _, want := range []string{
		`kgeserve_requests_total{endpoint="score"} 1`,
		`kgeserve_requests_total{endpoint="predict"} 1`,
		`kgeserve_requests_total{endpoint="neighbors"} 1`,
		`kgeserve_score_latency_seconds_count 1`,
		`kgeserve_predict_latency_seconds_bucket`,
		`kgeserve_batch_size_count 1`,
		`kgeserve_cache_hit_ratio`,
		`kgeserve_store_entities 30`,
		`kgeserve_reloads_total 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestReloadSwapsCheckpoint(t *testing.T) {
	s, url, _ := newTestServer(t, 16)
	oldCRC := s.Store().Info().CRC

	// A different parameter snapshot, same shape.
	dir := t.TempDir()
	m := model.New("complex", 4)
	p := model.NewParams(m, 30, 4)
	p.Init(m, xrand.New(123))
	next := filepath.Join(dir, "next.kge")
	if err := model.SaveCheckpoint(next, m, p); err != nil {
		t.Fatal(err)
	}

	var resp reloadResponse
	status, raw := postJSON(t, url+"/v1/reload", map[string]any{"path": next}, &resp)
	if status != http.StatusOK {
		t.Fatalf("reload status %d: %s", status, raw)
	}
	if resp.Reloads != 1 || resp.Checkpoint.CRC == oldCRC {
		t.Fatalf("reload response %+v (old crc %s)", resp, oldCRC)
	}
	if got := s.Store().Info().Path; got != next {
		t.Fatalf("live path %s, want %s", got, next)
	}

	// Shape mismatch is rejected and the live store stays put.
	p2 := model.NewParams(m, 31, 4)
	p2.Init(m, xrand.New(5))
	bad := filepath.Join(dir, "bad.kge")
	if err := model.SaveCheckpoint(bad, m, p2); err != nil {
		t.Fatal(err)
	}
	status, raw = postJSON(t, url+"/v1/reload", map[string]any{"path": bad}, nil)
	if status != http.StatusConflict {
		t.Fatalf("bad reload status %d: %s", status, raw)
	}
	if s.Store().Info().Path != next {
		t.Fatal("failed reload replaced the live store")
	}
	var health healthResponse
	if err := json.Unmarshal([]byte(getBody(t, url+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Reloads != 1 || health.LastReloadErr == "" {
		t.Fatalf("healthz after failed reload: %+v", health)
	}
}

// TestReloadRejectsCorruptCheckpoint drives /v1/reload with two damaged
// copies of the live checkpoint: one with a flipped body byte (the CRC
// check fails) and one cut in half. Each must be refused with 409 and
// reported on /healthz, and the old generation must keep serving: same
// checkpoint CRC, same /v1/predict answers, no reload counted.
func TestReloadRejectsCorruptCheckpoint(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	live := s.Store().Info()
	raw, err := os.ReadFile(live.Path)
	if err != nil {
		t.Fatal(err)
	}
	queries := []map[string]any{
		{"head": 0, "relation": 0, "k": 5},
		{"tail": 6, "relation": 1, "k": 7},
		{"head": 9, "relation": 3, "k": 30, "filtered": true},
	}
	predictAll := func() []string {
		var out []string
		for _, q := range queries {
			status, body := postJSON(t, url+"/v1/predict", q, nil)
			if status != http.StatusOK {
				t.Fatalf("predict %v: %d %s", q, status, body)
			}
			out = append(out, body)
		}
		return out
	}
	before := predictAll()

	dir := t.TempDir()
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	for _, bad := range []struct {
		name, data, reason string
	}{
		{"flipped.kge", string(flipped), "checksum mismatch"},
		{"truncated.kge", string(raw[:len(raw)/2]), "corrupt checkpoint"},
	} {
		path := filepath.Join(dir, bad.name)
		if err := os.WriteFile(path, []byte(bad.data), 0o644); err != nil {
			t.Fatal(err)
		}
		status, body := postJSON(t, url+"/v1/reload", map[string]any{"path": path}, nil)
		if status != http.StatusConflict {
			t.Fatalf("%s: reload status %d: %s", bad.name, status, body)
		}
		var health healthResponse
		if err := json.Unmarshal([]byte(getBody(t, url+"/healthz")), &health); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(health.LastReloadErr, bad.reason) || health.Reloads != 0 {
			t.Fatalf("%s: healthz after failed reload: %+v", bad.name, health)
		}
		if health.Checkpoint.CRC != live.CRC || health.Checkpoint.Path != live.Path {
			t.Fatalf("%s: healthz serves %s (crc %s), want %s (crc %s)", bad.name,
				health.Checkpoint.Path, health.Checkpoint.CRC, live.Path, live.CRC)
		}
		if got := s.Store().Info(); got.CRC != live.CRC || got.Path != live.Path {
			t.Fatalf("%s: live store is %s (crc %s), want %s (crc %s)", bad.name, got.Path, got.CRC, live.Path, live.CRC)
		}
		for i, body := range predictAll() {
			if body != before[i] {
				t.Fatalf("%s: predict %v changed after the failed reload:\n%s\nwas\n%s", bad.name, queries[i], body, before[i])
			}
		}
	}
}

// TestConcurrentQueriesDuringReload is the acceptance test for atomic hot
// reload: a mixed read workload hammers every endpoint while the live
// checkpoint is swapped back and forth. Every response must be internally
// consistent (HTTP 200, well-formed, correct cardinality); the race
// detector guards the memory model. Afterwards every generation's cache is
// audited: a predict answer cached there was computed on that generation's
// store, whichever generation the handler that asked for it started on.
func TestConcurrentQueriesDuringReload(t *testing.T) {
	s, url, _ := newTestServer(t, 64)

	// Second checkpoint with identical shape.
	dir := t.TempDir()
	m := model.New("complex", 4)
	p := model.NewParams(m, 30, 4)
	p.Init(m, xrand.New(77))
	alt := filepath.Join(dir, "alt.kge")
	if err := model.SaveCheckpoint(alt, m, p); err != nil {
		t.Fatal(err)
	}
	paths := []string{alt, s.Store().Info().Path}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					var resp scoreResponse
					if status, raw := postJSON(t, url+"/v1/score", map[string]any{
						"triples": []map[string]int{{"h": w, "r": i % 4, "t": (w + i) % 30}},
					}, &resp); status != http.StatusOK || len(resp.Scores) != 1 {
						t.Errorf("score during reload: %d %s", status, raw)
						return
					}
				case 1:
					var resp predictResponse
					if status, raw := postJSON(t, url+"/v1/predict", map[string]any{
						"head": w, "relation": i % 4, "k": 5,
					}, &resp); status != http.StatusOK || len(resp.Completions) != 5 {
						t.Errorf("predict during reload: %d %s", status, raw)
						return
					}
				default:
					var resp neighborsResponse
					if status, raw := postJSON(t, url+"/v1/neighbors", map[string]any{
						"entity": (w * 3) % 30, "k": 3,
					}, &resp); status != http.StatusOK || len(resp.Neighbors) != 3 {
						t.Errorf("neighbors during reload: %d %s", status, raw)
						return
					}
				}
			}
		}(w)
	}

	const reloads = 10
	gens := []*state{s.state.Load()}
	for i := 0; i < reloads; i++ {
		if err := s.Reload(paths[i%2]); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		gens = append(gens, s.state.Load())
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	audited := 0
	for g, gen := range gens {
		for h := 0; h < 6; h++ {
			for r := 0; r < 4; r++ {
				q := PredictQuery{Side: "tail", H: h, R: r, K: 5}
				raw, ok := gen.cache.Get(fmt.Sprintf("predict|%s|%d|%d|%d|%d|%t", q.Side, q.H, q.R, q.T, q.K, q.Filtered))
				if !ok {
					continue
				}
				audited++
				var resp predictResponse
				if err := json.Unmarshal(raw, &resp); err != nil {
					t.Fatalf("generation %d cached %q: %v", g, raw, err)
				}
				for i, want := range bruteForcePredict(gen.store, nil, q) {
					if got := resp.Completions[i]; got.Entity != want.Entity || got.Score != want.Score {
						t.Fatalf("generation %d caches an answer to %+v computed on another store: rank %d is %+v, its own store gives %+v",
							g, q, i, got, want)
					}
				}
			}
		}
	}
	if audited == 0 {
		t.Fatal("no cached predict answer to audit")
	}

	n, lastErr := s.ReloadStatus()
	if n != reloads || lastErr != "" {
		t.Fatalf("reload status %d %q", n, lastErr)
	}
	out := getBody(t, url+"/metrics")
	if !strings.Contains(out, fmt.Sprintf("kgeserve_reloads_total %d", reloads)) {
		t.Fatalf("metrics lost reload count:\n%s", out)
	}
}

func TestServerCloseDrains(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, url+"/v1/predict", map[string]any{"head": i % 30, "relation": 0, "k": 2}, nil)
		}(i)
	}
	wg.Wait()
	s.Close() // must not hang with queries drained
	// After close the batcher rejects; the endpoint degrades to a 500, not a hang.
	if status, _ := postJSON(t, url+"/v1/predict", map[string]any{"head": 0, "relation": 0}, nil); status == http.StatusOK {
		t.Fatal("predict succeeded after Close")
	}
}

// bruteForcePredict ranks every entity for q with one ScoreRows call per
// row, filter applied before ranking: the reference the tiled sweep must
// reproduce bit for bit.
func bruteForcePredict(st *Store, filter *kg.FilterIndex, q PredictQuery) []eval.ScoredEntity {
	var all []eval.ScoredEntity
	for e := 0; e < st.NumEntities(); e++ {
		tr := kg.Triple{H: int32(q.H), R: int32(q.R), T: int32(e)}
		score := st.Score(q.H, q.R, e)
		if q.Side == "head" {
			tr = kg.Triple{H: int32(e), R: int32(q.R), T: int32(q.T)}
			score = st.Score(e, q.R, q.T)
		}
		if q.Filtered && filter.Contains(tr) {
			continue
		}
		all = append(all, eval.ScoredEntity{Entity: int32(e), Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score { //kgelint:ignore floateq reference ranking uses the accumulator's exact tie-break
			return all[i].Score > all[j].Score
		}
		return all[i].Entity < all[j].Entity
	})
	return all[:min(q.K, len(all))]
}

// TestPredictBatchEqualsBruteForce runs one mixed micro-batch (head and tail,
// filtered and not, k of 1, 10 and more than the table) straight through
// runPredictBatch and compares every answer with the brute-force ranking:
// over tables whose shards are not tile multiples, swept by three workers,
// and over a table smaller than one tile, swept inline.
func TestPredictBatchEqualsBruteForce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		model                    string
		dim, entities, shardRows int
		workers                  int
		clustered                bool
	}{
		{"transe", 8, 2500, 1100, 3, false}, // five tiles: 1024+76, 1024+76, 300 rows
		{"complex", 8, 2500, 0, 3, false},   // one shard, three tiles: 1024, 1024, 452
		{"distmult", 8, 300, 64, 1, false},  // smaller than a tile; shards smaller still
		// Trained-like geometry at the serving width, past TransE's floor
		// check: most 16-row blocks stop at k = 16 for every query.
		{"transe", 64, 6000, 0, 4, true},
	} {
		const rels = 4
		d := &kg.Dataset{NumEntities: tc.entities, NumRelations: rels}
		rng := xrand.New(5)
		for i := 0; i < 40*tc.entities/100; i++ {
			// Dense facts around entity 3 so filtering removes top candidates.
			d.Train = append(d.Train,
				kg.Triple{H: 3, R: int32(i % rels), T: int32(rng.Intn(tc.entities))},
				kg.Triple{H: int32(rng.Intn(tc.entities)), R: int32(i % rels), T: 3})
		}
		path := writeCheckpoint(t, t.TempDir(), tc.model, tc.dim, tc.entities, rels, 11)
		if tc.clustered {
			path = writeClusteredCheckpoint(t, t.TempDir(), tc.model, tc.dim, tc.entities, rels, 11)
		}
		s, err := New(Config{
			CheckpointPath: path,
			ShardRows:      tc.shardRows,
			MaxBatch:       64,
			Filter:         kg.NewFilterIndex(d),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.Store().sweepWorkers(); got != tc.workers {
			t.Fatalf("%s/%d: %d sweep workers, want %d", tc.model, tc.entities, got, tc.workers)
		}
		var qs []PredictQuery
		for _, k := range []int{1, 10, tc.entities + 5} {
			for _, filtered := range []bool{false, true} {
				qs = append(qs,
					PredictQuery{Side: "tail", H: 3, R: len(qs) % rels, K: k, Filtered: filtered},
					PredictQuery{Side: "head", T: 3, R: len(qs) % rels, K: k, Filtered: filtered})
			}
		}
		qs = append(qs, PredictQuery{Side: "tail", H: tc.entities, R: 0, K: 1}) // out of range: an error, not a panic
		outs := s.runPredictBatch(qs)
		if outs[len(qs)-1].Err == nil {
			t.Fatalf("%s: out-of-range entity accepted", tc.model)
		}
		for i, q := range qs[:len(qs)-1] {
			want := bruteForcePredict(s.Store(), s.cfg.Filter, q)
			got := outs[i].Completions
			if outs[i].Err != nil || len(got) != len(want) {
				t.Fatalf("%s query %+v: %d completions (err %v), want %d", tc.model, q, len(got), outs[i].Err, len(want))
			}
			for j := range want {
				if got[j].Entity != want[j].Entity || math.Float32bits(got[j].Score) != math.Float32bits(want[j].Score) {
					t.Fatalf("%s query %+v rank %d: got %+v, want %+v", tc.model, q, j, got[j], want[j])
				}
			}
		}
		if tc.clustered {
			// The case is only worth its time if the floor check fires: at
			// the final top-10 floor of its first query, rows must stop.
			st, q := s.Store(), qs[4] // tail, k = 10, unfiltered
			floor := bruteForcePredict(st, s.cfg.Filter, q)[q.K-1].Score
			exact, got := make([]float32, st.NumEntities()), make([]float32, st.NumEntities())
			slab := st.shards[0][:len(exact)*st.width]
			st.block.ScoreBlock(model.Tail, st.EntityRow(q.H), st.RelationRow(q.R), slab, exact, float32(math.Inf(-1)))
			st.block.ScoreBlock(model.Tail, st.EntityRow(q.H), st.RelationRow(q.R), slab, got, floor)
			stopped := 0
			for i := range got {
				if got[i] != exact[i] {
					stopped++
				}
			}
			if stopped < len(got)/4 {
				t.Fatalf("%s dim %d: %d of %d rows stopped at floor %v; the case no longer reaches the check",
					tc.model, tc.dim, stopped, len(got), floor)
			}
		}
	}
}

// TestPredictBatchCancelledQuery: a query whose context is done when its
// batch runs scores no tile and is answered with the context's error, while
// its batch-mates still equal the brute-force ranking; over HTTP such a
// request is answered 499, counted as cancelled rather than as an error, and
// leaves nothing in the cache.
func TestPredictBatchCancelledQuery(t *testing.T) {
	s, err := New(Config{
		CheckpointPath: writeClusteredCheckpoint(t, t.TempDir(), "transe", 64, 3000, 4, 12),
		CacheSize:      64,
		MaxBatch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []PredictQuery{
		{Side: "tail", H: 3, R: 0, K: 10},
		{Side: "head", T: 5, R: 1, K: 10, Ctx: cancelled},
		{Side: "head", T: 3, R: 2, K: 10, Ctx: context.Background()},
	}
	outs := s.runPredictBatch(qs)
	if !errors.Is(outs[1].Err, context.Canceled) || outs[1].Completions != nil {
		t.Fatalf("cancelled query: err %v, %d completions; want context.Canceled and none", outs[1].Err, len(outs[1].Completions))
	}
	for _, i := range []int{0, 2} {
		want, got := bruteForcePredict(s.Store(), nil, qs[i]), outs[i].Completions
		if outs[i].Err != nil || len(got) != len(want) {
			t.Fatalf("query %d: %d completions (err %v), want %d", i, len(got), outs[i].Err, len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d rank %d: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}

	req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(`{"head": 3, "relation": 0, "k": 10}`)).WithContext(cancelled)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled request answered %d, want 499: %s", rec.Code, rec.Body)
	}
	if n := s.state.Load().cache.Stats().Entries; n != 0 {
		t.Fatalf("cancelled request left %d cache entries", n)
	}
	// A client that went away is no server error: it counts as cancelled.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`kgeserve_errors_total{endpoint="predict"} 0`,
		`kgeserve_cancelled_total{endpoint="predict"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
