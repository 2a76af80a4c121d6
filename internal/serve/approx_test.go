package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kgedist/internal/binpack"
	"kgedist/internal/eval"
	"kgedist/internal/model"
	"kgedist/internal/xrand"
)

// TestPredictApproxFullBudget anchors the approx endpoint to the exact
// path: with a candidate budget covering every entity, stage 2 rescores the
// whole table, so ?mode=approx must return exactly what the batched exact
// sweep returns — same ids, same scores, same order.
func TestPredictApproxFullBudget(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	n := s.Store().NumEntities()

	var exact, approx predictResponse
	if status, raw := postJSON(t, url+"/v1/predict", map[string]any{
		"head": 0, "relation": 0, "k": 5,
	}, &exact); status != http.StatusOK {
		t.Fatalf("exact: %d %s", status, raw)
	}
	if status, raw := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{
		"head": 0, "relation": 0, "k": 5, "candidates": n,
	}, &approx); status != http.StatusOK {
		t.Fatalf("approx: %d %s", status, raw)
	}
	if approx.Mode != "approx" || approx.Candidates != n || approx.Rescored != n {
		t.Fatalf("approx accounting %+v", approx)
	}
	if len(approx.Completions) != len(exact.Completions) {
		t.Fatalf("approx %d completions, exact %d", len(approx.Completions), len(exact.Completions))
	}
	for i := range exact.Completions {
		if approx.Completions[i] != exact.Completions[i] {
			t.Fatalf("rank %d: approx %+v, exact %+v", i, approx.Completions[i], exact.Completions[i])
		}
	}

	// The mode body field is an alias for the URL parameter.
	var viaBody predictResponse
	if status, raw := postJSON(t, url+"/v1/predict", map[string]any{
		"head": 0, "relation": 0, "k": 5, "mode": "approx", "candidates": n,
	}, &viaBody); status != http.StatusOK || viaBody.Mode != "approx" {
		t.Fatalf("body mode: %d %s %+v", status, raw, viaBody)
	}

	// Head-side approx with full budget matches head-side exact too.
	var exactH, approxH predictResponse
	postJSON(t, url+"/v1/predict", map[string]any{"tail": 1, "relation": 2, "k": 4}, &exactH)
	if status, raw := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{
		"tail": 1, "relation": 2, "k": 4, "candidates": n,
	}, &approxH); status != http.StatusOK {
		t.Fatalf("head approx: %d %s", status, raw)
	}
	for i := range exactH.Completions {
		if approxH.Completions[i] != exactH.Completions[i] {
			t.Fatalf("head rank %d: approx %+v, exact %+v", i, approxH.Completions[i], exactH.Completions[i])
		}
	}

	// Accounting reaches /metrics.
	out := getBody(t, url+"/metrics")
	for _, want := range []string{
		"kgeserve_approx_requests_total 3",
		fmt.Sprintf("kgeserve_approx_candidates_total %d", 3*n),
		fmt.Sprintf("kgeserve_approx_rescored_total %d", 3*n),
		"kgeserve_approx_latency_seconds_count 3",
		"kgeserve_store_packed_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPredictApproxFullBudgetAcrossReload holds the full-budget approx
// answer (binpack's gathered rescore, in 64-row chunks under its own
// floor) to the exact sweep (TransE's block kernel, AVX2 where the build
// has it, in tiles under the sweep's floor) at the serving width: 2 500
// entities in shards of 1 100 rows, so every shard is swept as a 1024-row
// tile plus a short one and the kernel's 16-row blocks leave Go-loop tails
// of 12 rows. Every rank on both sides must carry the same entity and the
// same score bits, before and after a /v1/reload to a second checkpoint.
func TestPredictApproxFullBudgetAcrossReload(t *testing.T) {
	const entities, rels = 2500, 4
	s, err := New(Config{
		CheckpointPath: writeCheckpoint(t, t.TempDir(), "transe", 64, entities, rels, 21),
		ShardRows:      1100,
		MaxBatch:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	queries := []map[string]any{
		{"head": 0, "relation": 0}, {"head": 1799, "relation": 3},
		{"tail": 7, "relation": 1}, {"tail": 2499, "relation": 2},
	}
	// rank answers every query in both modes, checks they agree bit for bit
	// and returns the exact answers.
	rank := func(gen string) [][]Completion {
		var all [][]Completion
		for _, q := range queries {
			var exact, approx predictResponse
			body := map[string]any{"k": entities}
			for k, v := range q {
				body[k] = v
			}
			if status, raw := postJSON(t, ts.URL+"/v1/predict", body, &exact); status != http.StatusOK {
				t.Fatalf("%s exact %v: %d %s", gen, q, status, raw)
			}
			body["candidates"] = entities
			if status, raw := postJSON(t, ts.URL+"/v1/predict?mode=approx", body, &approx); status != http.StatusOK {
				t.Fatalf("%s approx %v: %d %s", gen, q, status, raw)
			}
			if approx.Rescored != entities || len(exact.Completions) != entities || len(approx.Completions) != entities {
				t.Fatalf("%s %v: rescored %d, %d exact and %d approx completions, want %d",
					gen, q, approx.Rescored, len(exact.Completions), len(approx.Completions), entities)
			}
			for i, e := range exact.Completions {
				a := approx.Completions[i]
				if a.Entity != e.Entity || math.Float32bits(a.Score) != math.Float32bits(e.Score) {
					t.Fatalf("%s %v rank %d: approx %+v (%#08x), exact %+v (%#08x)",
						gen, q, i, a, math.Float32bits(a.Score), e, math.Float32bits(e.Score))
				}
			}
			all = append(all, exact.Completions)
		}
		return all
	}
	before := rank("first checkpoint")

	next := writeCheckpoint(t, t.TempDir(), "transe", 64, entities, rels, 22)
	var resp reloadResponse
	if status, raw := postJSON(t, ts.URL+"/v1/reload", map[string]any{"path": next}, &resp); status != http.StatusOK || resp.Reloads != 1 {
		t.Fatalf("reload: %d %s", status, raw)
	}
	after := rank("after reload")
	if before[0][0] == after[0][0] {
		t.Fatalf("reload did not change the answers: top completion %+v both times", after[0][0])
	}
}

func TestPredictApproxFilteredAndErrors(t *testing.T) {
	s, url, d := newTestServer(t, 0)
	n := s.Store().NumEntities()

	// Filtered approx: known facts (0,0,1) and (0,0,2) never appear, and
	// with a full budget the result matches filtered exact.
	var exact, approx predictResponse
	postJSON(t, url+"/v1/predict", map[string]any{
		"head": 0, "relation": 0, "k": n, "filtered": true,
	}, &exact)
	if status, raw := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{
		"head": 0, "relation": 0, "k": n, "filtered": true, "candidates": n,
	}, &approx); status != http.StatusOK {
		t.Fatalf("filtered approx: %d %s", status, raw)
	}
	if approx.Rescored != n-2 {
		t.Fatalf("filtered approx rescored %d, want %d", approx.Rescored, n-2)
	}
	for _, c := range approx.Completions {
		for _, tr := range d.Train {
			if tr.H == 0 && tr.R == 0 && c.Entity == tr.T {
				t.Fatalf("filtered approx returned known fact tail %d", c.Entity)
			}
		}
	}
	for i := range exact.Completions {
		if approx.Completions[i] != exact.Completions[i] {
			t.Fatalf("filtered rank %d: approx %+v, exact %+v", i, approx.Completions[i], exact.Completions[i])
		}
	}

	// A tight budget still returns k results, each exactly scored.
	var tight predictResponse
	if status, raw := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{
		"head": 3, "relation": 1, "k": 4, "candidates": 8,
	}, &tight); status != http.StatusOK || len(tight.Completions) != 4 || tight.Candidates != 8 {
		t.Fatalf("tight budget: %d %s %+v", status, raw, tight)
	}
	st := s.Store()
	for _, c := range tight.Completions {
		want := st.Model().ScoreRows(st.EntityRow(3), st.RelationRow(1), st.EntityRow(int(c.Entity)))
		if c.Score != want {
			t.Fatalf("approx score for %d = %g, exact %g", c.Entity, c.Score, want)
		}
	}

	// Validation: unknown mode, bad ids.
	if status, _ := postJSON(t, url+"/v1/predict?mode=warp", map[string]any{"head": 0, "relation": 0}, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown mode status %d", status)
	}
	if status, _ := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{"head": 999, "relation": 0}, nil); status != http.StatusBadRequest {
		t.Fatalf("oob entity status %d", status)
	}
	if status, _ := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{"head": 0, "relation": 99}, nil); status != http.StatusBadRequest {
		t.Fatalf("oob relation status %d", status)
	}
}

func TestPredictApproxCaching(t *testing.T) {
	s, url, _ := newTestServer(t, 64)
	exactBody := map[string]any{"head": 0, "relation": 0, "k": 5}
	approxBody := map[string]any{"head": 0, "relation": 0, "k": 5, "candidates": 16}

	var exact, a1, a2 predictResponse
	postJSON(t, url+"/v1/predict", exactBody, &exact)
	postJSON(t, url+"/v1/predict?mode=approx", approxBody, &a1)
	postJSON(t, url+"/v1/predict?mode=approx", approxBody, &a2)
	if a1.Mode != "approx" || fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatalf("cached approx differs: %+v vs %+v", a1, a2)
	}
	// Exact and approx cache under different keys: the exact entry must
	// not have been served for the approx request or vice versa.
	if exact.Mode != "" || exact.Candidates != 0 {
		t.Fatalf("exact response leaked approx fields: %+v", exact)
	}
	if s.state.Load().cache.Stats().Hits < 1 {
		t.Fatal("no cache hit for repeated approx query")
	}
}

// TestConcurrentApproxDuringReload extends the hot-reload acceptance test
// to the two-stage path: approx predicts run full tilt while the live
// checkpoint flips between two same-shape snapshots. Because the packed
// index lives inside the Store and approx queries resolve one state
// snapshot, every response must equal — bit for bit — the approx answer of
// either checkpoint A or checkpoint B, never a hybrid of old codes with
// new rows.
func TestConcurrentApproxDuringReload(t *testing.T) {
	s, url, _ := newTestServer(t, 0)
	pathA := s.Store().Info().Path

	dir := t.TempDir()
	m := model.New("complex", 4)
	p := model.NewParams(m, 30, 4)
	p.Init(m, xrand.New(77))
	pathB := filepath.Join(dir, "alt.kge")
	if err := model.SaveCheckpoint(pathB, m, p); err != nil {
		t.Fatal(err)
	}

	// Expected approx answers per generation, computed on side stores.
	const k, c = 5, 16
	type query struct{ h, r int }
	queries := []query{{0, 0}, {7, 1}, {13, 2}, {21, 3}}
	oracle := func(path string) map[query][]eval.ScoredEntity {
		st, err := OpenStore(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		sc := binpack.NewScratch()
		out := make(map[query][]eval.ScoredEntity, len(queries))
		for _, q := range queries {
			res, _, _, err := st.Packed().Search(st.Model(), "tail",
				st.EntityRow(q.h), st.RelationRow(q.r), st.EntityRow, k, c, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			out[q] = res
		}
		return out
	}
	wantA, wantB := oracle(pathA), oracle(pathB)

	matches := func(got []Completion, want []eval.ScoredEntity) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Entity != want[i].Entity || got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}

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
				q := queries[(w+i)%len(queries)]
				var resp predictResponse
				status, raw := postJSON(t, url+"/v1/predict?mode=approx", map[string]any{
					"head": q.h, "relation": q.r, "k": k, "candidates": c,
				}, &resp)
				if status != http.StatusOK {
					t.Errorf("approx during reload: %d %s", status, raw)
					return
				}
				if !matches(resp.Completions, wantA[q]) && !matches(resp.Completions, wantB[q]) {
					t.Errorf("query %+v: response %+v matches neither generation (A %+v, B %+v)",
						q, resp.Completions, wantA[q], wantB[q])
					return
				}
			}
		}(w)
	}

	for i := 0; i < 10; i++ {
		path := pathB
		if i%2 == 1 {
			path = pathA
		}
		if err := s.Reload(path); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestStorePackedGeneration pins the swap-as-one-generation invariant at
// the store level: the packed index is built at open time over exactly the
// rows the store serves, and a reload installs a store whose index is a
// different object built from the new rows.
func TestStorePackedGeneration(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	st := s.Store()
	ix := st.Packed()
	if ix == nil {
		t.Fatal("no packed index on open")
	}
	if ix.Rows() != st.NumEntities() {
		t.Fatalf("packed rows %d, store entities %d", ix.Rows(), st.NumEntities())
	}
	if err := s.Reload(""); err != nil {
		t.Fatal(err)
	}
	st2 := s.Store()
	if st2 == st || st2.Packed() == ix {
		t.Fatal("reload did not produce a fresh store+index generation")
	}
}
