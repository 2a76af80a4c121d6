package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kgedist/internal/model"
	"kgedist/internal/serve"
	"kgedist/internal/xrand"
)

// serveSpec is one serving workload: the predict mode, the two open-loop
// arrival rates and the latency limit that define its slo_ok_share.
type serveSpec struct {
	name       string
	approx     bool
	candidates int
	rateMid    float64 // predict_p50_ms / predict_p95_ms are taken here
	rateHigh   float64 // slo_ok_share is taken here
	limitMS    float64
	verify     int // answers checked against the brute-force ranking
}

var serveSpecs = []serveSpec{
	{name: "serve_exact", rateMid: 60, rateHigh: 120, limitMS: 20, verify: 32},
	{name: "serve_approx", approx: true, candidates: 1024, rateMid: 200, rateHigh: 400, limitMS: 8, verify: 200},
}

func findServeSpec(name string) (serveSpec, bool) {
	for _, s := range serveSpecs {
		if s.name == name {
			return s, true
		}
	}
	return serveSpec{}, false
}

// A run is a warm-up followed by serveRounds rounds, each of which drives
// the mid open-loop rate, the high open-loop rate and the closed loop in
// turn. Interleaving the phases means a few noisy seconds on a shared host
// hit every metric alike, and reporting a quantile of the rounds' own
// statistics (the median; the upper quartile for closed-loop throughput)
// means they move none of them. The shares are of --seconds.
const (
	serveRounds = 5
	warmShare   = 0.05
	midShare    = 0.40
	highShare   = 0.30
	closedShare = 0.25
)

const predictK = 10

// serveFixture is the checkpoint a serving workload loads: a ClusteredInit
// TransE table (trained-like geometry) generated from the run seed.
type serveFixture struct {
	m      model.Model
	p      *model.Params
	path   string
	offset int // seeded start of the query walk
}

func newServeFixture(seed uint64, smoke bool, workdir string) (*serveFixture, error) {
	entities, dim, relations, clusters := 50000, 64, 16, 512
	if smoke {
		entities, dim, relations, clusters = 2000, 16, 8, 32
	}
	m := model.New("transe", dim)
	p := model.NewParams(m, entities, relations)
	p.ClusteredInit(m, clusters, 0.25, xrand.New(seed))
	fx := &serveFixture{m: m, p: p, path: filepath.Join(workdir, "serve.kge"),
		offset: xrand.New(seed).Split(0x5e17e).Intn(entities)}
	if err := model.SaveCheckpoint(fx.path, m, p); err != nil {
		return nil, fmt.Errorf("saving serve checkpoint: %w", err)
	}
	return fx, nil
}

// serveConfig is kgeserve's defaults.
func (fx *serveFixture) serveConfig() serve.Config {
	return serve.Config{CheckpointPath: fx.path, CacheSize: 4096, MaxBatch: 64, BatchWindow: time.Millisecond}
}

// query is one predict request: complete the tail of (E, R, ?) or the head
// of (?, R, E).
type query struct {
	E, R int
	Tail bool
}

// queryAt returns the i-th query of the run. Entities walk the table with a
// stride coprime to its size from a seeded offset, so the first NumEntities
// queries are unique (the result cache never hits) and the same seed always
// yields the same sequence; sides alternate, half head and half tail.
func (fx *serveFixture) queryAt(i int) query {
	const stride = 7919 // prime, coprime to every table size used here
	return query{E: (fx.offset + i*stride) % fx.p.Entity.Rows, R: i % fx.p.Relation.Rows, Tail: i%2 == 0}
}

type completion struct {
	Entity int32   `json:"entity"`
	Score  float32 `json:"score"`
}

type predictBody struct {
	Side        string       `json:"side"`
	Completions []completion `json:"completions"`
	Rescored    int          `json:"rescored,omitempty"`
}

// reference is the brute-force ranking done in the harness straight from
// the generated parameters: score every entity, order by score descending
// and entity id ascending (the server's documented tie-break).
func (fx *serveFixture) reference(q query, k int) []completion {
	rel := fx.p.Relation.Row(q.R)
	fix := fx.p.Entity.Row(q.E)
	best := make([]completion, 0, k+1)
	for e := 0; e < fx.p.Entity.Rows; e++ {
		row := fx.p.Entity.Row(e)
		var s float32
		if q.Tail {
			s = fx.m.ScoreRows(fix, rel, row)
		} else {
			s = fx.m.ScoreRows(row, rel, fix)
		}
		if len(best) == k && s <= best[k-1].Score {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return best[i].Score < s })
		best = append(best, completion{})
		copy(best[at+1:], best[at:])
		best[at] = completion{Entity: int32(e), Score: s}
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// servingClient issues predict requests over HTTP and keeps the answers to
// the first queries of the measured phases — a fixed window of query indices,
// not whichever answers arrive first, so the checked set and the recall
// computed from it are the same on every run of a seed.
type servingClient struct {
	fx     *serveFixture
	spec   serveSpec
	base   string
	client *http.Client

	mu               sync.Mutex
	keepFrom, keepTo int                  // query indices [keepFrom, keepTo) are kept
	kept             map[int]*predictBody // query index -> decoded answer
}

func (c *servingClient) requestBody(q query) []byte {
	side := "tail"
	if q.Tail {
		side = "head" // the given slot; the server completes the other one
	}
	body := fmt.Sprintf(`{"%s":%d,"relation":%d,"k":%d`, side, q.E, q.R, predictK)
	if c.spec.approx {
		body += fmt.Sprintf(`,"candidates":%d`, c.spec.candidates)
	}
	return []byte(body + "}")
}

// do sends query i and reports whether it was answered well-formed: HTTP
// 200, k completions, scores in descending order.
func (c *servingClient) do(i, _ int) opResult {
	q := c.fx.queryAt(i)
	body := c.requestBody(q)
	url := c.base + "/v1/predict"
	if c.spec.approx {
		url += "?mode=approx"
	}
	resp, err := c.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return opResult{}
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read-only body, already drained
	if err != nil || resp.StatusCode != http.StatusOK {
		return opResult{bytes: len(body) + len(raw)}
	}
	var pb predictBody
	if err := json.Unmarshal(raw, &pb); err != nil {
		return opResult{bytes: len(body) + len(raw)}
	}
	ok := len(pb.Completions) == predictK
	for j := 1; j < len(pb.Completions); j++ {
		ok = ok && pb.Completions[j-1].Score >= pb.Completions[j].Score
	}
	if ok && i >= c.keepFrom && i < c.keepTo {
		c.mu.Lock()
		c.kept[i] = &pb
		c.mu.Unlock()
	}
	return opResult{ok: ok, bytes: len(body) + len(raw)}
}

// runServe executes a serving workload: load the checkpoint (timed, several
// times), self-host the server on loopback, and drive warm-up, two open-loop
// rates and a closed loop, each a fixed share of env.seconds.
func runServe(env *runEnv, spec serveSpec) (*outcome, error) {
	out := newOutcome()
	root := env.tr.begin("workload:"+spec.name, -1, 0)
	defer env.tr.end(root)

	fx, err := newServeFixture(env.seed, env.smoke, env.workdir)
	if err != nil {
		return nil, err
	}
	if env.smoke && spec.approx {
		spec.candidates = 256
	}

	// Set-up: checkpoint load through serve.New, packed index included.
	var srv *serve.Server
	var setups []float64
	for i := 0; i < env.setupReps(); i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC() // each repeat starts from the same heap state
		sp := env.tr.begin("serve.New", root, 0)
		t0 := time.Now()
		srv, err = serve.New(fx.serveConfig())
		setups = append(setups, time.Since(t0).Seconds())
		env.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("serve.New: %w", err)
		}
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding serve listener: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	defer func() {
		_ = httpSrv.Close() // error-path shutdown; the success path checks it below
		<-served
	}()

	nw := workers()
	cl := &servingClient{fx: fx, spec: spec, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: nw, MaxIdleConnsPerHost: nw, MaxConnsPerHost: nw}},
		kept:   map[int]*predictBody{}}
	defer cl.client.CloseIdleConnections()

	phaseDur := func(share float64) time.Duration {
		return time.Duration(share * env.seconds * float64(time.Second))
	}
	// The warm-up draws its queries from the far half of the query walk, so
	// the measured phases always start at query 0 however many requests the
	// warm-up managed to send.
	next := fx.p.Entity.Rows / 2
	runPhase := func(name string, rate float64, share float64) *phaseStats {
		sp := env.tr.begin("phase:"+name, root, 0)
		var after func(worker int, sent, done time.Time)
		if env.tr != nil {
			after = func(worker int, sent, done time.Time) { env.tr.add("POST /v1/predict", sp, worker+1, sent, done) }
		}
		var ps *phaseStats
		if rate > 0 {
			ps = openLoop(name, rate, phaseDur(share), nw, next, cl.do, after)
		} else {
			ps = closedLoop(name, phaseDur(share), nw, next, cl.do, after)
		}
		env.tr.end(sp)
		next += ps.sent
		return ps
	}
	runPhase("warmup", 0, warmShare) // fills caches and connection pool; not reported
	next = 0
	cl.keepFrom, cl.keepTo = 0, spec.verify
	mem := startMemDelta()
	mid, high, closed := &phaseStats{name: "open_mid", rate: spec.rateMid}, &phaseStats{name: "open_high", rate: spec.rateHigh}, &phaseStats{name: "closed"}
	var roundP50, roundQPS, roundSLO []float64
	for r := 0; r < serveRounds; r++ {
		m := runPhase("open_mid", spec.rateMid, midShare/serveRounds)
		h := runPhase("open_high", spec.rateHigh, highShare/serveRounds)
		c := runPhase("closed", 0, closedShare/serveRounds)
		roundP50 = append(roundP50, m.percentile(0.50))
		roundSLO = append(roundSLO, h.okWithin(spec.limitMS))
		roundQPS = append(roundQPS, float64(c.ok)/c.elapsed)
		mid.merge(m)
		high.merge(h)
		closed.merge(c)
	}
	phases := []*phaseStats{mid, high, closed}
	allocMB, gcCycles := mem.stop()

	scraped, err := scrapeMetrics(cl.client, cl.base)
	if err != nil {
		return nil, err
	}
	if err := httpSrv.Close(); err != nil {
		return nil, fmt.Errorf("stopping http server: %w", err)
	}

	for _, ps := range phases {
		out.attempted += int64(ps.sent)
		out.failed += int64(ps.failed)
	}

	// Correctness: the kept answers against the brute-force ranking.
	sp := env.tr.begin("verify", root, 0)
	var recallSum float64
	exactMatches, checked := 0, 0
	for i := cl.keepFrom; i < cl.keepTo; i++ {
		got, ok := cl.kept[i]
		if !ok {
			continue
		}
		checked++
		want := fx.reference(fx.queryAt(i), predictK)
		inWant := make(map[int32]float32, len(want))
		for _, c := range want {
			inWant[c.Entity] = c.Score
		}
		hit, same := 0, len(got.Completions) == len(want)
		for j, c := range got.Completions {
			if ws, ok := inWant[c.Entity]; ok && approxEqual(float64(ws), float64(c.Score)) {
				hit++
			}
			same = same && j < len(want) && want[j].Entity == c.Entity
		}
		recallSum += float64(hit) / float64(len(want))
		if same {
			exactMatches++
		}
	}
	env.tr.end(sp)
	recall := 0.0
	if checked > 0 {
		recall = recallSum / float64(checked)
	}
	out.addCheck(check{Name: "answers_checked", OK: checked == spec.verify || (env.smoke && checked > 0),
		Detail: fmt.Sprintf("%d of %d", checked, spec.verify)})
	if spec.approx {
		out.addCheck(check{Name: "recall_at_10_at_least_0.95", OK: recall >= 0.95, Detail: fmt.Sprintf("recall@10=%.4f over %d", recall, checked)})
	} else {
		out.addCheck(check{Name: "answers_equal_brute_force", OK: exactMatches == checked && checked > 0,
			Detail: fmt.Sprintf("%d of %d identical rankings", exactMatches, checked)})
	}
	out.addCheck(check{Name: "no_failed_requests", OK: out.failed == 0, Detail: fmt.Sprintf("%d of %d", out.failed, out.attempted)})

	p50 := median(roundP50)
	// Interference from a shared host only ever lowers a round's throughput
	// (a round at half speed when a neighbour takes one of the two
	// processors is common on the reference box), so capacity is read off the
	// upper quartile of the five rounds, not their median.
	qps := quantile(roundQPS, 0.75)
	slo := median(roundSLO)

	out.set("setup_s", median(setups), "s")
	out.set("predict_p50_ms", finiteOr(p50, 1e9), "ms")
	tail := supportedPercentile(mid.sent)
	if tail >= 0.95 {
		out.set("predict_p95_ms", finiteOr(mid.percentile(0.95), 1e9), "ms")
	}
	if tail >= 0.99 {
		out.set("loadgen.p99_ms", finiteOr(mid.percentile(0.99), 1e9), "ms")
	}
	out.set("predict_qps_closed", qps, "1/s")
	out.set("predict_qps_closed_median_round", median(roundQPS), "1/s")
	out.set("slo_ok_share", slo, "share")
	out.set("recall_at_10", recall, "ratio")
	out.set("predict_body_kb", float64(mid.bytes)/float64(max(mid.sent, 1))/1e3, "kB")
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	out.set("failed_share", float64(out.failed)/float64(max(out.attempted, 1)), "share")
	out.set("slo_limit_ms", spec.limitMS, "ms")
	maxRateOK := 0.0
	for _, ps := range []*phaseStats{mid, high} {
		if ps.okWithin(spec.limitMS) >= 0.95 {
			maxRateOK = ps.rate
		}
	}
	out.set("loadgen.max_rate_ok_qps", maxRateOK, "1/s")
	var late []float64
	for _, ps := range phases {
		late = append(late, ps.lateMS...)
		out.set("loadgen."+ps.name+".sent", float64(ps.sent), "count")
		out.set("loadgen."+ps.name+".ok", float64(ps.ok), "count")
		out.set("loadgen."+ps.name+".failed", float64(ps.failed), "count")
		out.set("loadgen."+ps.name+".p50_ms", finiteOr(ps.percentile(0.50), 1e9), "ms")
		if p := supportedPercentile(ps.sent); p > 0.5 {
			out.set(fmt.Sprintf("loadgen.%s.p%g_ms", ps.name, 100*p), finiteOr(ps.percentile(p), 1e9), "ms")
		}
		out.set("loadgen."+ps.name+".late_p99_ms", quantile(ps.lateMS, 0.99), "ms")
	}
	out.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	out.set("loadgen.workers", float64(nw), "count")
	out.set("serve.batch_size_mean", scraped.batchMean, "count")
	out.set("serve.cache_hit_ratio", scraped.cacheHitRatio, "ratio")
	out.set("serve.approx_rescored_per_query", scraped.rescoredPerQuery, "count")

	out.opSeconds = p50 / 1e3
	out.allocMBPerOp = allocMB / float64(max(out.attempted, 1))
	out.gcCycles = gcCycles
	out.bill = serveBill(fx, spec)
	return out, nil
}

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-5*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func finiteOr(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

// scrapedMetrics are the server-side counters read from /metrics.
type scrapedMetrics struct {
	batchMean        float64
	cacheHitRatio    float64
	rescoredPerQuery float64
}

func scrapeMetrics(client *http.Client, base string) (scrapedMetrics, error) {
	var s scrapedMetrics
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return s, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close() //kgelint:ignore droppederr read-only close
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, raw, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(raw, 64); err == nil {
			vals[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("reading /metrics: %w", err)
	}
	if n := vals["kgeserve_batch_size_count"]; n > 0 {
		s.batchMean = vals["kgeserve_batch_size_sum"] / n
	}
	s.cacheHitRatio = vals["kgeserve_cache_hit_ratio"]
	if n := vals["kgeserve_approx_requests_total"]; n > 0 {
		s.rescoredPerQuery = vals["kgeserve_approx_rescored_total"] / n
	}
	return s, nil
}
