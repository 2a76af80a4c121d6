// Package serve is the inference half of the system: it loads trained
// embedding checkpoints into an immutable, shard-partitioned read-only
// store and answers scoring, completion and similarity queries over HTTP.
// Training owns the mutable tensor.Matrix path; serving deliberately does
// not share it — a Store is frozen at load time, every method is safe for
// unlimited concurrent readers, and checkpoint upgrades happen by swapping
// whole stores atomically (see Server), never by mutating one in place.
package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kgedist/internal/binpack"
	"kgedist/internal/eval"
	"kgedist/internal/model"
)

// Store is a read-only snapshot of one checkpoint's embeddings. Entity rows
// are partitioned into contiguous shards, each with its own backing slice,
// which keeps any single allocation small enough for the allocator to place
// comfortably at FB250K scale; predict and neighbors sweep them in tiles
// (sweepTiles).
type Store struct {
	m     model.Model
	block model.BlockScorer // m's 1-vs-N kernel, under the predict sweep
	width int

	numEntities  int
	numRelations int

	shardRows int         // entity rows per shard (last shard may be short)
	shards    [][]float32 // shard s holds rows [s*shardRows, min((s+1)*shardRows, numEntities))
	relations []float32   // relation matrix, single slab (relation counts are small)

	// packed is the 1-bit candidate-generation index over the same entity
	// rows (mode=approx predicts). Built at open time from the frozen
	// slabs, it lives and dies with the store, so a hot reload swaps the
	// full-precision rows and their binarized codes as one generation —
	// an approx query can never pair old codes with new rows.
	packed *binpack.Index

	info StoreInfo
}

// StoreInfo identifies the checkpoint a store was built from; /healthz
// reports it so operators can tell which parameter snapshot is live.
type StoreInfo struct {
	Path     string    `json:"path"`
	Model    string    `json:"model"`
	Dim      int       `json:"dim"`
	Entities int       `json:"entities"`
	Relation int       `json:"relations"`
	CRC      string    `json:"crc32"`
	LoadedAt time.Time `json:"loaded_at"`
}

// DefaultShardRows bounds one shard to ~16k rows; at dim 200 ComplEx that
// is a ~25MB slab. Sweep parallelism does not depend on it (see tileRows).
const DefaultShardRows = 16384

// OpenStore loads the KGE2 checkpoint at path into a new Store. shardRows
// sets the entity partition grain (<= 0 selects DefaultShardRows). The
// checkpoint is CRC-validated by the load, in the one pass that reads it;
// a corrupt file never becomes a live store.
func OpenStore(path string, shardRows int) (*Store, error) {
	m, p, info, err := model.LoadCheckpointWithInfo(path)
	if err != nil {
		return nil, err
	}
	if shardRows <= 0 {
		shardRows = DefaultShardRows
	}
	block, ok := m.(model.BlockScorer)
	if !ok {
		return nil, fmt.Errorf("serve: model %s has no block scorer", m.Name())
	}
	s := &Store{
		m:            m,
		block:        block,
		width:        m.Width(),
		numEntities:  p.Entity.Rows,
		numRelations: p.Relation.Rows,
		shardRows:    shardRows,
		relations:    p.Relation.Data,
		info: StoreInfo{
			Path:     path,
			Model:    info.Model,
			Dim:      info.Dim,
			Entities: info.Entities,
			Relation: info.Relations,
			CRC:      fmt.Sprintf("%08x", info.CRC),
			LoadedAt: time.Now().UTC(),
		},
	}
	// Carve the entity matrix into per-shard slabs, copied out of the
	// loaded Params so the store owns its memory outright and the
	// training-shaped Params can be collected.
	numShards := (s.numEntities + shardRows - 1) / shardRows
	if numShards == 0 {
		numShards = 1
		s.shards = [][]float32{{}}
	} else {
		s.shards = make([][]float32, numShards)
		for i := 0; i < numShards; i++ {
			lo, hi := s.shardBounds(i)
			slab := make([]float32, (hi-lo)*s.width)
			copy(slab, p.Entity.Data[lo*s.width:hi*s.width])
			s.shards[i] = slab
		}
	}
	// Binarize the entity table for mode=approx candidate generation.
	// Models without a binarization rule simply serve without an approx
	// path; that is a per-request error, not a load failure.
	if packed, err := binpack.Build(m, s.numEntities, s.EntityRow); err == nil {
		s.packed = packed
	}
	return s, nil
}

// Packed returns the 1-bit candidate-generation index built over this
// store's entity rows, or nil when the model has no binarization rule.
func (s *Store) Packed() *binpack.Index { return s.packed }

func (s *Store) shardBounds(i int) (lo, hi int) {
	lo = i * s.shardRows
	hi = lo + s.shardRows
	if hi > s.numEntities {
		hi = s.numEntities
	}
	return lo, hi
}

// Model returns the scoring model (stateless; safe to share).
func (s *Store) Model() model.Model { return s.m }

// Info returns the checkpoint identity.
func (s *Store) Info() StoreInfo { return s.info }

// NumEntities returns the number of entity rows.
func (s *Store) NumEntities() int { return s.numEntities }

// NumRelations returns the number of relation rows.
func (s *Store) NumRelations() int { return s.numRelations }

// NumShards returns the entity shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// EntityRow returns entity id's embedding row. The slice aliases the
// store's immutable slab: callers must treat it as read-only.
func (s *Store) EntityRow(id int) []float32 {
	if id < 0 || id >= s.numEntities {
		panic("serve: entity id out of range")
	}
	shard := id / s.shardRows
	off := (id - shard*s.shardRows) * s.width
	return s.shards[shard][off : off+s.width]
}

// RelationRow returns relation id's embedding row (read-only).
func (s *Store) RelationRow(id int) []float32 {
	if id < 0 || id >= s.numRelations {
		panic("serve: relation id out of range")
	}
	return s.relations[id*s.width : (id+1)*s.width]
}

// Score computes the model score of (h, r, t).
func (s *Store) Score(h, r, t int) float32 {
	return s.m.ScoreRows(s.EntityRow(h), s.RelationRow(r), s.EntityRow(t))
}

// tileRows caps the rows one sweep work item covers: at dim 64 a tile is
// 256KB, small enough to stay cache-hot while every query of a batch scores
// it and to balance a sweep across workers whatever the shard count.
const tileRows = 1024

// sweepWorkers is how many workers a sweep of this store uses: GOMAXPROCS,
// capped at one per tileRows rows, so a table smaller than a tile runs
// inline however finely it is sharded.
func (s *Store) sweepWorkers() int {
	return max(1, min(runtime.GOMAXPROCS(0), (s.numEntities+tileRows-1)/tileRows))
}

// sweepTiles calls fn(worker, lo, slab) once for every tile of the entity
// table — slab holds the rows of entities lo, lo+1, ... and never spans
// shards — handing tiles out from a shared cursor to workers goroutines,
// the caller's included. fn must be safe to run concurrently with itself
// under distinct worker indices.
func (s *Store) sweepTiles(workers int, fn func(worker, lo int, slab []float32)) {
	// Only the last shard can be short, and its tiles come last.
	perShard := (s.shardRows + tileRows - 1) / tileRows
	full, rest := s.numEntities/s.shardRows, s.numEntities%s.shardRows
	total := full*perShard + (rest+tileRows-1)/tileRows
	var next atomic.Int64
	work := func(worker int) {
		for t := int(next.Add(1)) - 1; t < total; t = int(next.Add(1)) - 1 {
			shard, off := t/perShard, t%perShard*tileRows
			slab := s.shards[shard]
			fn(worker, shard*s.shardRows+off, slab[off*s.width:min((off+tileRows)*s.width, len(slab))])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// Neighbors returns the k entities most similar to entity id under the
// given metric ("cosine" or "dot"), excluding the query entity itself. The
// sweep is parallel across tiles with per-worker accumulators merged at
// the end — a read-only fan-out with no locks on the hot path.
func (s *Store) Neighbors(id, k int, metric string) ([]eval.ScoredEntity, error) {
	if id < 0 || id >= s.numEntities {
		return nil, fmt.Errorf("serve: entity %d out of range [0,%d)", id, s.numEntities)
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: non-positive k %d", k)
	}
	// Every sweep worker keeps a k-entry heap: an unclamped k from a request
	// would size them, however few entities there are to rank.
	k = min(k, s.numEntities)
	var sim func(q, c []float32) float32
	switch metric {
	case "", "cosine":
		sim = cosine
	case "dot":
		sim = dot
	default:
		return nil, fmt.Errorf("serve: unknown similarity metric %q", metric)
	}
	q := s.EntityRow(id)
	accs := make([]*eval.TopKAccumulator, s.sweepWorkers())
	for w := range accs {
		accs[w] = eval.NewTopK(k)
	}
	s.sweepTiles(len(accs), func(worker, lo int, slab []float32) {
		for e := lo; len(slab) > 0; e, slab = e+1, slab[s.width:] {
			if e != id {
				accs[worker].Offer(int32(e), sim(q, slab[:s.width]))
			}
		}
	})
	merged := accs[0]
	for _, a := range accs[1:] {
		merged.Merge(a)
	}
	return merged.Results(), nil
}

func dot(a, b []float32) float32 {
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

func cosine(a, b []float32) float32 {
	var num, na, nb float64
	for i, av := range a {
		num += float64(av) * float64(b[i])
		na += float64(av) * float64(av)
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float32(num / (math.Sqrt(na) * math.Sqrt(nb)))
}
