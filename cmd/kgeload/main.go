// Command kgeload drives sustained concurrent predict traffic against a
// kgeserve instance and records what the server actually delivered: p50/p99
// latency, achieved QPS at a target arrival rate, and — for mode=approx —
// recall@k against the exact ranking.
//
// Point it at a live server, or let it self-host one over a generated
// clustered checkpoint (trained-like geometry; see model.ClusteredInit):
//
//	kgeload -addr http://localhost:8080 -qps 400 -duration 10s
//	kgeload -entities 50000 -dim 64 -qps 400 -min-recall 0.95
//
// The load phase is open-loop: arrivals are paced at -qps regardless of
// completions, so a server that cannot keep up shows queueing in its p99
// and an achieved QPS below target, exactly as production would see it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"kgedist/internal/model"
	"kgedist/internal/serve"
	"kgedist/internal/xrand"
)

func main() {
	var (
		addr       = flag.String("addr", "", "base URL of a live kgeserve (e.g. http://localhost:8080); empty self-hosts one")
		ckpt       = flag.String("model", "", "checkpoint to self-host (empty = generate a clustered one)")
		genModel   = flag.String("gen-model", "transe", "model of the generated checkpoint: complex, distmult, transe")
		entities   = flag.Int("entities", 50000, "entities in the generated checkpoint")
		relations  = flag.Int("relations", 16, "relations in the generated checkpoint")
		dim        = flag.Int("dim", 64, "dimension of the generated checkpoint")
		clusters   = flag.Int("clusters", 512, "entity clusters in the generated checkpoint")
		spread     = flag.Float64("spread", 0.25, "within-cluster noise ratio of the generated checkpoint")
		seed       = flag.Uint64("seed", 7, "seed for checkpoint generation and query sampling")
		qps        = flag.Float64("qps", 400, "target sustained arrival rate per mode")
		duration   = flag.Duration("duration", 5*time.Second, "load phase length per mode")
		conc       = flag.Int("conc", 2*runtime.GOMAXPROCS(0), "concurrent load workers")
		k          = flag.Int("k", 10, "top-k per predict")
		candidates = flag.Int("candidates", serve.DefaultCandidates, "approx stage-1 budget")
		fidelity   = flag.Int("fidelity", 200, "queries in the recall@k fidelity phase (0 skips)")
		minRecall  = flag.Float64("min-recall", 0, "fail when recall@k falls below this (0 disables)")
	)
	flag.Parse()

	base := *addr
	if base == "" {
		var stop func()
		var err error
		base, stop, err = selfHost(*ckpt, *genModel, *dim, *entities, *relations, *clusters, *spread, *seed)
		if err != nil {
			log.Fatalf("kgeload: %v", err)
		}
		defer stop()
	}
	numEntities, numRelations, err := shape(base)
	if err != nil {
		log.Fatalf("kgeload: probing %s: %v", base, err)
	}
	log.Printf("target %s: %d entities, %d relations", base, numEntities, numRelations)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conc,
		MaxIdleConnsPerHost: *conc,
	}}
	rng := xrand.New(*seed).Split(0x10ad)
	queries := sampleQueries(rng, 1024, numEntities, numRelations)

	// Fidelity phase: per-query recall@k of approx against exact.
	recall := -1.0
	if *fidelity > 0 {
		recall, err = measureRecall(client, base, queries[:min(*fidelity, len(queries))], *k, *candidates)
		if err != nil {
			log.Fatalf("kgeload: fidelity: %v", err)
		}
		log.Printf("recall@%d (c=%d) = %.4f over %d queries", *k, *candidates, recall, min(*fidelity, len(queries)))
	}

	// Load phases: exact then approx, same arrival process.
	p50 := map[string]float64{}
	for _, mode := range []string{"exact", "approx"} {
		res := runLoad(client, base, mode, queries, *k, *candidates, *qps, *duration, *conc)
		if res.ok == 0 {
			log.Fatalf("kgeload: mode=%s completed zero requests (%d errors)", mode, res.errs)
		}
		sort.Float64s(res.latencies)
		p50[mode] = percentile(res.latencies, 0.50)
		p99 := percentile(res.latencies, 0.99)
		achieved := float64(res.ok) / res.elapsed.Seconds()
		log.Printf("mode=%s: %d ok, %d errors, p50 %.3fms p99 %.3fms, %.1f/%.1f qps",
			mode, res.ok, res.errs, p50[mode]*1e3, p99*1e3, achieved, *qps)
	}
	log.Printf("approx p50 speedup over exact: %.2fx", p50["exact"]/p50["approx"])

	if *minRecall > 0 && recall >= 0 && recall < *minRecall {
		log.Fatalf("kgeload: recall@%d %.4f below floor %.4f", *k, recall, *minRecall)
	}
}

// selfHost generates (or loads) a checkpoint and serves it on a loopback
// listener. The result cache is disabled so measured latencies are real
// scoring work, not cache hits.
func selfHost(ckpt, name string, dim, entities, relations, clusters int, spread float64, seed uint64) (string, func(), error) {
	if ckpt == "" {
		if !model.IsKnownModel(name) {
			return "", nil, fmt.Errorf("unknown -gen-model %q (want complex, distmult or transe)", name)
		}
		dir, err := os.MkdirTemp("", "kgeload")
		if err != nil {
			return "", nil, err
		}
		m := model.New(name, dim)
		p := model.NewParams(m, entities, relations)
		p.ClusteredInit(m, clusters, spread, xrand.New(seed))
		ckpt = filepath.Join(dir, "load.kge")
		if err := model.SaveCheckpoint(ckpt, m, p); err != nil {
			return "", nil, err
		}
		log.Printf("generated %s checkpoint: %d entities x dim %d, %d clusters", name, entities, dim, clusters)
	}
	srv, err := serve.New(serve.Config{
		CheckpointPath: ckpt,
		CacheSize:      0,
		MaxBatch:       64,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	stop := func() {
		_ = httpSrv.Close()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// shape reads entity/relation counts from the server's /healthz.
func shape(base string) (entities, relations int, err error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close() //kgelint:ignore droppederr read-only close
	var health struct {
		Checkpoint struct {
			Entities  int `json:"entities"`
			Relations int `json:"relations"`
		} `json:"checkpoint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, 0, err
	}
	if health.Checkpoint.Entities <= 0 || health.Checkpoint.Relations <= 0 {
		return 0, 0, fmt.Errorf("implausible shape %+v", health.Checkpoint)
	}
	return health.Checkpoint.Entities, health.Checkpoint.Relations, nil
}

type query struct{ h, r int }

func sampleQueries(rng *xrand.RNG, n, entities, relations int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{h: rng.Intn(entities), r: rng.Intn(relations)}
	}
	return qs
}

type completion struct {
	Entity int32 `json:"entity"`
}

type predictBody struct {
	Completions []completion `json:"completions"`
}

func predict(client *http.Client, base, mode string, q query, k, candidates int) (*predictBody, error) {
	body := map[string]any{"head": q.h, "relation": q.r, "k": k}
	url := base + "/v1/predict"
	if mode == "approx" {
		url += "?mode=approx"
		body["candidates"] = candidates
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //kgelint:ignore droppederr read-only close
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("predict %s: HTTP %d", mode, resp.StatusCode)
	}
	var out predictBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// measureRecall compares the approx and exact top-k entity sets per query
// and averages |approx ∩ exact| / k.
func measureRecall(client *http.Client, base string, qs []query, k, candidates int) (float64, error) {
	var total float64
	for _, q := range qs {
		exact, err := predict(client, base, "exact", q, k, candidates)
		if err != nil {
			return 0, err
		}
		approx, err := predict(client, base, "approx", q, k, candidates)
		if err != nil {
			return 0, err
		}
		want := make(map[int32]bool, len(exact.Completions))
		for _, c := range exact.Completions {
			want[c.Entity] = true
		}
		hit := 0
		for _, c := range approx.Completions {
			if want[c.Entity] {
				hit++
			}
		}
		if len(exact.Completions) > 0 {
			total += float64(hit) / float64(len(exact.Completions))
		}
	}
	return total / float64(len(qs)), nil
}

type loadResult struct {
	ok        int64
	errs      int64
	latencies []float64 // seconds, successful requests only
	elapsed   time.Duration
}

// runLoad paces arrivals at the target QPS for the given duration and fans
// them out to conc workers. Arrivals that find every worker busy queue in
// the channel — open-loop, so server-side saturation surfaces as tail
// latency instead of silently throttling the offered load.
func runLoad(client *http.Client, base, mode string, qs []query, k, candidates int, qps float64, d time.Duration, conc int) loadResult {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	arrivals := make(chan int, 4096)
	var wg sync.WaitGroup
	var mu sync.Mutex
	res := loadResult{}

	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []float64
			var ok, errs int64
			for i := range arrivals {
				q := qs[i%len(qs)]
				start := time.Now()
				_, err := predict(client, base, mode, q, k, candidates)
				if err != nil {
					errs++
					continue
				}
				ok++
				lats = append(lats, time.Since(start).Seconds())
			}
			mu.Lock()
			res.ok += ok
			res.errs += errs
			res.latencies = append(res.latencies, lats...)
			mu.Unlock()
		}()
	}

	start := time.Now()
	tick := time.NewTicker(interval)
	deadline := time.After(d)
	i := 0
pace:
	for {
		select {
		case <-deadline:
			break pace
		case <-tick.C:
			arrivals <- i
			i++
		}
	}
	tick.Stop()
	close(arrivals)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
