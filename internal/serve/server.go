package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kgedist/internal/binpack"
	"kgedist/internal/eval"
	"kgedist/internal/kg"
	"kgedist/internal/metrics"
	"kgedist/internal/model"
)

// Config parameterizes a Server.
type Config struct {
	// CheckpointPath is the KGE2 checkpoint to serve (required).
	CheckpointPath string
	// ShardRows is the entity shard grain (<= 0 = DefaultShardRows).
	ShardRows int
	// CacheSize caps the result cache entry count (<= 0 disables caching).
	CacheSize int
	// MaxBatch caps predict micro-batches (clamped to >= 1).
	MaxBatch int
	// BatchWindow is accepted and ignored: the batcher no longer holds a
	// query back to wait for company (see Batcher).
	BatchWindow time.Duration
	// Filter, when set, enables filtered prediction: candidates that are
	// known facts are skipped. Built from the training dataset.
	Filter *kg.FilterIndex
}

// state is one generation of servable state. Store and cache live and die
// together: a reload installs a fresh pair via one atomic pointer swap, so
// no request can ever pair an old cache with a new store.
type state struct {
	store *Store
	cache *Cache
}

// endpointMetrics instruments one API endpoint.
type endpointMetrics struct {
	requests  metrics.Counter
	errors    metrics.Counter
	cancelled metrics.Counter // requests whose client went away: answered 499, not errors
	latency   *metrics.Histogram
}

// Server is the HTTP inference server. All public methods are safe for
// concurrent use; queries proceed against an immutable state snapshot, so
// Reload never blocks the read path.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	state   atomic.Pointer[state]
	batcher *Batcher

	endpoints  map[string]*endpointMetrics
	batchSizes *metrics.Histogram
	started    time.Time

	// mode=approx accounting: per-query candidate/rescore totals make the
	// prefilter budget vs. work ratio observable, and a dedicated latency
	// histogram separates the sub-linear path from batched exact predicts.
	approxRequests   metrics.Counter
	approxCandidates metrics.Counter
	approxRescored   metrics.Counter
	approxLatency    *metrics.Histogram
	approxScratch    sync.Pool // of *binpack.Scratch

	reloadMu      sync.Mutex // serializes Reload itself
	statusMu      sync.Mutex // guards the reload status fields below
	reloads       int64
	lastReloadErr string
}

// New loads the configured checkpoint and returns a ready Server. The
// caller owns shutdown ordering: drain HTTP first, then Close.
func New(cfg Config) (*Server, error) {
	st, err := OpenStore(cfg.CheckpointPath, cfg.ShardRows)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		mux:           http.NewServeMux(),
		batchSizes:    metrics.NewHistogram(metrics.SizeBuckets(1024)...),
		started:       time.Now(),
		endpoints:     map[string]*endpointMetrics{},
		approxLatency: metrics.NewHistogram(metrics.LatencyBuckets()...),
	}
	s.approxScratch.New = func() any { return binpack.NewScratch() }
	s.state.Store(&state{store: st, cache: NewCache(cfg.CacheSize)})
	s.batcher = NewBatcher(cfg.MaxBatch, cfg.BatchWindow, s.batchSizes, s.runPredictBatch)
	for _, name := range []string{"score", "predict", "neighbors", "reload"} {
		s.endpoints[name] = &endpointMetrics{latency: metrics.NewHistogram(metrics.LatencyBuckets()...)}
	}
	s.mux.HandleFunc("POST /v1/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/neighbors", s.instrument("neighbors", s.handleNeighbors))
	s.mux.HandleFunc("POST /v1/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the current live store snapshot.
func (s *Server) Store() *Store { return s.state.Load().store }

// Close stops the batcher, draining queued queries. Call after the HTTP
// listener has stopped accepting requests.
func (s *Server) Close() { s.batcher.Stop() }

// Reload loads the checkpoint at path (or the originally configured path
// when empty) off to the side, validates it against the live store, and
// atomically swaps it in together with a fresh cache. In-flight requests
// finish against the state snapshot they started with. On any error the
// live state is untouched and /healthz reports the failure.
func (s *Server) Reload(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.state.Load()
	if path == "" {
		path = cur.store.info.Path
	}
	err := s.reloadLocked(cur, path)
	s.statusMu.Lock()
	if err != nil {
		s.lastReloadErr = err.Error()
	} else {
		s.lastReloadErr = ""
		s.reloads++
	}
	s.statusMu.Unlock()
	return err
}

func (s *Server) reloadLocked(cur *state, path string) error {
	st, err := OpenStore(path, s.cfg.ShardRows)
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	// Entity and relation id spaces must keep their meaning: the filter
	// index and every client-side id mapping are defined over them. A
	// checkpoint with a different shape is a different deployment, not a
	// hot upgrade.
	if st.numEntities != cur.store.numEntities || st.numRelations != cur.store.numRelations {
		return fmt.Errorf("serve: reload rejected: checkpoint shape (%d entities, %d relations) does not match live store (%d, %d)",
			st.numEntities, st.numRelations, cur.store.numEntities, cur.store.numRelations)
	}
	s.state.Store(&state{store: st, cache: NewCache(s.cfg.CacheSize)})
	return nil
}

// ReloadStatus reports how many reloads succeeded and the last failure.
func (s *Server) ReloadStatus() (reloads int64, lastErr string) {
	s.statusMu.Lock()
	defer s.statusMu.Unlock()
	return s.reloads, s.lastReloadErr
}

// ---- request plumbing ------------------------------------------------------

// apiError carries an HTTP status through the instrument wrapper.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// instrument wraps an endpoint handler with request/error counting and
// latency observation. Handlers return the response value to encode (a
// json.RawMessage passes through verbatim, serving the cached-bytes path).
func (s *Server) instrument(name string, fn func(r *http.Request) (any, error)) http.HandlerFunc {
	em := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		v, err := fn(r)
		em.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			status, counter := http.StatusInternalServerError, &em.errors
			var ae *apiError
			switch {
			case errors.As(err, &ae):
				status = ae.status
			case errors.Is(err, context.Canceled):
				status, counter = statusClientClosedRequest, &em.cancelled
			}
			counter.Inc()
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if raw, ok := v.(json.RawMessage); ok {
			_, _ = w.Write(raw)
			return
		}
		_ = json.NewEncoder(w).Encode(v)
	}
}

// statusClientClosedRequest answers a request whose context was cancelled —
// its client went away — with nginx's 499 rather than a server error.
const statusClientClosedRequest = 499

// maxBodyBytes caps every request body (instrument wraps it in
// http.MaxBytesReader); decodeJSON answers a larger one with 413.
const maxBodyBytes = 1 << 20

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// ---- /v1/score -------------------------------------------------------------

// TripleRef is one (head, relation, tail) id triple in API requests.
type TripleRef struct {
	H int `json:"h"`
	R int `json:"r"`
	T int `json:"t"`
}

type scoreRequest struct {
	Triples []TripleRef `json:"triples"`
}

type scoreResponse struct {
	Model  string    `json:"model"`
	Scores []float32 `json:"scores"`
}

func (s *Server) handleScore(r *http.Request) (any, error) {
	var req scoreRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if len(req.Triples) == 0 {
		return nil, badRequest("score: empty triple list")
	}
	st := s.state.Load().store
	resp := scoreResponse{Model: st.info.Model, Scores: make([]float32, len(req.Triples))}
	for i, t := range req.Triples {
		if err := st.checkTriple(t); err != nil {
			return nil, err
		}
		resp.Scores[i] = st.Score(t.H, t.R, t.T)
	}
	return resp, nil
}

func (s *Store) checkTriple(t TripleRef) error {
	if t.H < 0 || t.H >= s.numEntities || t.T < 0 || t.T >= s.numEntities {
		return badRequest("entity id out of range [0,%d): %+v", s.numEntities, t)
	}
	if t.R < 0 || t.R >= s.numRelations {
		return badRequest("relation id out of range [0,%d): %+v", s.numRelations, t)
	}
	return nil
}

// ---- /v1/predict -----------------------------------------------------------

// DefaultCandidates is the stage-1 budget of a mode=approx predict when the
// request does not set one: large enough for recall@10 >= 0.95 on trained
// geometry at FB15k scale, small enough to keep the rescore stage ~50x
// cheaper than a full sweep (see README "Serving").
const DefaultCandidates = 1024

type predictRequest struct {
	Head     *int `json:"head"`
	Relation *int `json:"relation"`
	Tail     *int `json:"tail"`
	K        int  `json:"k"`
	Filtered bool `json:"filtered"`
	// Mode selects the ranking pipeline: "exact" (default) sweeps every
	// entity through the micro-batcher; "approx" runs the two-stage
	// binarized prefilter + exact rescore. ?mode= in the URL wins.
	Mode string `json:"mode,omitempty"`
	// Candidates is the approx stage-1 budget (<= 0 = DefaultCandidates).
	Candidates int `json:"candidates,omitempty"`
}

// Completion is one ranked completion in a predict response.
type Completion struct {
	Entity int32   `json:"entity"`
	Score  float32 `json:"score"`
}

type predictResponse struct {
	Side        string       `json:"side"`
	Completions []Completion `json:"completions"`
	// Approx accounting, absent on exact responses: Candidates is the
	// stage-1 slice size, Rescored how many survived filtering into the
	// exact stage-2 scoring.
	Mode       string `json:"mode,omitempty"`
	Candidates int    `json:"candidates,omitempty"`
	Rescored   int    `json:"rescored,omitempty"`
}

func (s *Server) handlePredict(r *http.Request) (any, error) {
	var req predictRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Relation == nil {
		return nil, badRequest("predict: relation is required")
	}
	if (req.Head == nil) == (req.Tail == nil) {
		return nil, badRequest("predict: exactly one of head and tail must be given; the missing one is completed")
	}
	if req.Filtered && s.cfg.Filter == nil {
		return nil, badRequest("predict: filtered ranking requires the server to be started with a dataset (-data/-dataset)")
	}
	if req.K <= 0 {
		req.K = 10
	}
	q := PredictQuery{R: *req.Relation, K: req.K, Filtered: req.Filtered, Ctx: r.Context()}
	if req.Tail == nil {
		q.Side = "tail"
		q.H = *req.Head
	} else {
		q.Side = "head"
		q.T = *req.Tail
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = req.Mode
	}
	switch mode {
	case "", "exact":
	case "approx":
		return s.predictApprox(q, req.Candidates)
	default:
		return nil, badRequest("predict: unknown mode %q (want exact or approx)", mode)
	}

	gen := s.state.Load()
	key := fmt.Sprintf("predict|%s|%d|%d|%d|%d|%t", q.Side, q.H, q.R, q.T, q.K, q.Filtered)
	if cached, ok := gen.cache.Get(key); ok {
		return json.RawMessage(cached), nil
	}
	res := s.batcher.Submit(q)
	if res.Err != nil {
		return nil, res.Err
	}
	resp := predictResponse{Side: q.Side, Completions: make([]Completion, len(res.Completions))}
	for i, c := range res.Completions {
		resp.Completions[i] = Completion{Entity: c.Entity, Score: c.Score}
	}
	// A reload may have landed since gen was loaded; the answer belongs to
	// the generation the batch ran on and is cached nowhere else.
	return res.gen.cached(key, resp)
}

// cached marshals a response computed on this generation's store, stores
// the bytes in this generation's cache under key, and returns them.
func (g *state) cached(key string, resp any) (any, error) {
	buf, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	g.cache.Put(key, buf)
	return json.RawMessage(buf), nil
}

// skipKnown returns the filtered-ranking predicate of q — candidate e is
// skipped when completing q with it gives a known fact — or nil when q is
// unfiltered.
func (s *Server) skipKnown(q PredictQuery) func(e int32) bool {
	if !q.Filtered {
		return nil
	}
	filter, rel := s.cfg.Filter, int32(q.R)
	if q.Side == "tail" {
		h := int32(q.H)
		return func(e int32) bool { return filter.Contains(kg.Triple{H: h, R: rel, T: e}) }
	}
	t := int32(q.T)
	return func(e int32) bool { return filter.Contains(kg.Triple{H: e, R: rel, T: t}) }
}

// predictApprox answers one mode=approx predict: a packed XOR/popcount
// prefilter over every entity selects the candidates smallest-Hamming ids,
// then binpack.Search's gathered block rescore of their rows, under the
// query's top-k floor, ranks the final top k by exact scores. The whole
// query runs against a single state snapshot — the packed index lives
// inside the Store, so a concurrent reload can never pair old codes with
// new rows. Approx queries bypass the micro-batcher on purpose: batching
// amortizes O(N) sweeps, while this path's point is per-query
// sub-linearity.
func (s *Server) predictApprox(q PredictQuery, candidates int) (any, error) {
	gen := s.state.Load()
	st := gen.store
	ix := st.Packed()
	if ix == nil {
		return nil, badRequest("predict: mode=approx is not available for model %q", st.info.Model)
	}
	fixed := q.H
	if q.Side == "head" {
		fixed = q.T
	}
	if fixed < 0 || fixed >= st.numEntities {
		return nil, badRequest("predict: entity id %d out of range [0,%d)", fixed, st.numEntities)
	}
	if q.R < 0 || q.R >= st.numRelations {
		return nil, badRequest("predict: relation id %d out of range [0,%d)", q.R, st.numRelations)
	}
	if candidates <= 0 {
		candidates = DefaultCandidates
	}
	key := fmt.Sprintf("predict|approx|%s|%d|%d|%d|%d|%d|%t", q.Side, q.H, q.R, q.T, q.K, candidates, q.Filtered)
	if cached, ok := gen.cache.Get(key); ok {
		return json.RawMessage(cached), nil
	}
	if err := ctxErr(q.Ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	sc := s.approxScratch.Get().(*binpack.Scratch)
	res, cand, rescored, err := ix.Search(st.m, q.Side, st.EntityRow(fixed), st.RelationRow(q.R), st.EntityRow, q.K, candidates, s.skipKnown(q), sc)
	s.approxScratch.Put(sc)
	if err != nil {
		return nil, badRequest("predict: %v", err)
	}
	s.approxLatency.Observe(time.Since(start).Seconds())
	s.approxRequests.Inc()
	s.approxCandidates.Add(int64(cand))
	s.approxRescored.Add(int64(rescored))
	resp := predictResponse{Side: q.Side, Mode: "approx", Candidates: cand, Rescored: rescored,
		Completions: make([]Completion, len(res))}
	for i, c := range res {
		resp.Completions[i] = Completion{Entity: c.Entity, Score: c.Score}
	}
	return gen.cached(key, resp)
}

// ctxErr is ctx.Err(), with a nil ctx never done.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// runPredictBatch executes one micro-batch on one generation: a single pass
// over the entity table in tiles, each tile block-scored for every query of
// the batch while it is cache-hot and its scores offered to that query's
// top-k, the filter consulted only for candidates that would be kept. Each
// tile is scored with the query's current k-th best score as the floor
// (model.BlockScorer), so TransE stops rows that cannot enter early, and not
// at all for a query whose context is done. Accumulators are per (worker,
// query) and merged afterwards, so the hot loop takes no locks.
func (s *Server) runPredictBatch(qs []PredictQuery) []PredictResult {
	gen := s.state.Load()
	st := gen.store
	outs := make([]PredictResult, len(qs))
	type prepared struct {
		idx        int
		side       model.Side
		fixE, relE []float32 // embeddings of the fixed entity and the relation
		k          int
		skip       func(e int32) bool
		ctx        context.Context
	}
	var live []prepared
	for i, q := range qs {
		outs[i].gen = gen
		side, fixed := model.Tail, q.H
		switch q.Side {
		case "tail":
		case "head":
			side, fixed = model.Head, q.T
		default:
			outs[i].Err = badRequest("predict: side must be head or tail")
			continue
		}
		if fixed < 0 || fixed >= st.numEntities {
			outs[i].Err = badRequest("predict: entity id %d out of range [0,%d)", fixed, st.numEntities)
			continue
		}
		if q.R < 0 || q.R >= st.numRelations {
			outs[i].Err = badRequest("predict: relation id %d out of range [0,%d)", q.R, st.numRelations)
			continue
		}
		live = append(live, prepared{idx: i, side: side, fixE: st.EntityRow(fixed), relE: st.RelationRow(q.R),
			k: min(q.K, st.numEntities), skip: s.skipKnown(q), ctx: q.Ctx})
	}
	if len(live) == 0 {
		return outs
	}
	workers := st.sweepWorkers()
	accs := make([][]*eval.TopKAccumulator, workers)
	scores := make([][]float32, workers)
	for w := range accs {
		scores[w] = make([]float32, tileRows)
		accs[w] = make([]*eval.TopKAccumulator, len(live))
		for i, p := range live {
			accs[w][i] = eval.NewTopK(p.k)
		}
	}
	st.sweepTiles(workers, func(worker, lo int, slab []float32) {
		out := scores[worker][:len(slab)/st.width]
		for i, p := range live {
			if ctxErr(p.ctx) != nil {
				continue
			}
			acc := accs[worker][i]
			st.block.ScoreBlock(p.side, p.fixE, p.relE, slab, out, acc.Floor())
			acc.OfferBlock(int32(lo), out, p.skip)
		}
	})
	for i, p := range live {
		if err := ctxErr(p.ctx); err != nil {
			outs[p.idx].Err = err
			continue
		}
		merged := accs[0][i]
		for _, local := range accs[1:] {
			merged.Merge(local[i])
		}
		outs[p.idx].Completions = merged.Results()
	}
	return outs
}

// ---- /v1/neighbors ---------------------------------------------------------

type neighborsRequest struct {
	Entity int    `json:"entity"`
	K      int    `json:"k"`
	Metric string `json:"metric"`
}

type neighborsResponse struct {
	Entity    int          `json:"entity"`
	Metric    string       `json:"metric"`
	Neighbors []Completion `json:"neighbors"`
}

func (s *Server) handleNeighbors(r *http.Request) (any, error) {
	var req neighborsRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.Metric == "" {
		req.Metric = "cosine"
	}
	gen := s.state.Load()
	key := fmt.Sprintf("neighbors|%d|%d|%s", req.Entity, req.K, req.Metric)
	if cached, ok := gen.cache.Get(key); ok {
		return json.RawMessage(cached), nil
	}
	nb, err := gen.store.Neighbors(req.Entity, req.K, req.Metric)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	resp := neighborsResponse{Entity: req.Entity, Metric: req.Metric, Neighbors: make([]Completion, len(nb))}
	for i, c := range nb {
		resp.Neighbors[i] = Completion{Entity: c.Entity, Score: c.Score}
	}
	return gen.cached(key, resp)
}

// ---- /v1/reload ------------------------------------------------------------

type reloadRequest struct {
	Path string `json:"path"`
}

type reloadResponse struct {
	Checkpoint StoreInfo `json:"checkpoint"`
	Reloads    int64     `json:"reloads"`
}

func (s *Server) handleReload(r *http.Request) (any, error) {
	var req reloadRequest
	if r.ContentLength != 0 {
		if err := decodeJSON(r, &req); err != nil {
			return nil, err
		}
	}
	if err := s.Reload(req.Path); err != nil {
		return nil, &apiError{status: http.StatusConflict, msg: err.Error()}
	}
	n, _ := s.ReloadStatus()
	return reloadResponse{Checkpoint: s.Store().Info(), Reloads: n}, nil
}

// ---- /healthz --------------------------------------------------------------

type healthResponse struct {
	Status        string    `json:"status"`
	Checkpoint    StoreInfo `json:"checkpoint"`
	Reloads       int64     `json:"reloads"`
	LastReloadErr string    `json:"last_reload_error,omitempty"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Filtered      bool      `json:"filtered_ranking"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n, lastErr := s.ReloadStatus()
	resp := healthResponse{
		Status:        "ok",
		Checkpoint:    s.Store().Info(),
		Reloads:       n,
		LastReloadErr: lastErr,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Filtered:      s.cfg.Filter != nil,
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// ---- /metrics --------------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	uptime := time.Since(s.started).Seconds()
	names := make([]string, 0, len(s.endpoints))
	for name := range s.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		em := s.endpoints[name]
		reqs := em.requests.Value()
		fmt.Fprintf(w, "kgeserve_requests_total{endpoint=%q} %d\n", name, reqs)
		fmt.Fprintf(w, "kgeserve_errors_total{endpoint=%q} %d\n", name, em.errors.Value())
		fmt.Fprintf(w, "kgeserve_cancelled_total{endpoint=%q} %d\n", name, em.cancelled.Value())
		if uptime > 0 {
			fmt.Fprintf(w, "kgeserve_qps{endpoint=%q} %.4f\n", name, float64(reqs)/uptime)
		}
		em.latency.Snapshot().WriteTo(w, "kgeserve_"+name+"_latency_seconds", "")
	}
	s.batchSizes.Snapshot().WriteTo(w, "kgeserve_batch_size", "")
	fmt.Fprintf(w, "kgeserve_approx_requests_total %d\n", s.approxRequests.Value())
	fmt.Fprintf(w, "kgeserve_approx_candidates_total %d\n", s.approxCandidates.Value())
	fmt.Fprintf(w, "kgeserve_approx_rescored_total %d\n", s.approxRescored.Value())
	s.approxLatency.Snapshot().WriteTo(w, "kgeserve_approx_latency_seconds", "")
	gen := s.state.Load()
	cs := gen.cache.Stats()
	fmt.Fprintf(w, "kgeserve_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "kgeserve_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "kgeserve_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "kgeserve_cache_hit_ratio %.4f\n", cs.Ratio)
	n, _ := s.ReloadStatus()
	fmt.Fprintf(w, "kgeserve_reloads_total %d\n", n)
	fmt.Fprintf(w, "kgeserve_store_entities %d\n", gen.store.NumEntities())
	fmt.Fprintf(w, "kgeserve_store_relations %d\n", gen.store.NumRelations())
	fmt.Fprintf(w, "kgeserve_store_shards %d\n", gen.store.NumShards())
	if ix := gen.store.Packed(); ix != nil {
		fmt.Fprintf(w, "kgeserve_store_packed_bytes %d\n", ix.Bytes())
	}
	fmt.Fprintf(w, "kgeserve_uptime_seconds %.3f\n", uptime)
}
