package kg

import (
	"fmt"
	"math"

	"kgedist/internal/xrand"
)

// GenConfig configures the synthetic knowledge-graph generator that stands
// in for the Freebase-derived FB15K/FB250K dumps (see DESIGN.md §2).
//
// The generator plants a community structure: entities belong to one of
// Communities groups, and every relation connects a fixed source community
// to a fixed target community. Triples draw their relation from a Zipf
// distribution (matching the heavy-tailed relation histograms of Freebase)
// and their entities Zipf-skewed within the relation's communities. A small
// NoiseFrac of triples ignores the community constraint. The resulting graph
// is learnable by factorization models (the communities are recoverable),
// heavy-tailed (so gradient matrices are sparse per batch, driving the
// all-gather/all-reduce trade-off), and gives random negative samples a
// hardness spectrum (corruptions inside the right community are hard,
// outside it easy), which the sample-selection strategy exploits.
type GenConfig struct {
	Name      string
	Entities  int
	Relations int
	Triples   int // total across splits, before dedup

	Communities  int     // number of entity communities (default 32)
	RelationZipf float64 // Zipf exponent over relations (default 1.0)
	EntityZipf   float64 // Zipf exponent within a community (default 0.8)
	NoiseFrac    float64 // fraction of unconstrained triples (default 0.05)

	ValidFrac float64 // fraction of triples for validation (default 0.05)
	TestFrac  float64 // fraction for test (default 0.05)

	Seed uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Communities == 0 {
		c.Communities = 32
	}
	if c.RelationZipf == 0 {
		c.RelationZipf = 1.0
	}
	if c.EntityZipf == 0 {
		c.EntityZipf = 0.8
	}
	if c.NoiseFrac == 0 {
		c.NoiseFrac = 0.05
	}
	if c.ValidFrac == 0 {
		c.ValidFrac = 0.05
	}
	if c.TestFrac == 0 {
		c.TestFrac = 0.05
	}
	return c
}

// Scaled multiplies the graph's size knobs — entities, relations and
// triples — by factor, clamping each at 1. The community count is left
// alone: a scaled graph keeps the original's community topology (the same
// number of clusters, each proportionally larger), so partitioners and
// samplers see the same structure at a different magnitude. Fractional
// knobs (Zipf exponents, noise, split fractions) are size-free and carry
// over unchanged.
func (c GenConfig) Scaled(factor float64) GenConfig {
	if factor <= 0 {
		panic(fmt.Sprintf("kg: Scaled factor must be positive, got %g", factor))
	}
	scale := func(n int) int {
		s := int(float64(n) * factor)
		if s < 1 {
			s = 1
		}
		return s
	}
	c.Entities = scale(c.Entities)
	c.Relations = scale(c.Relations)
	c.Triples = scale(c.Triples)
	if math.Float64bits(factor) != math.Float64bits(1) {
		c.Name = fmt.Sprintf("%s-x%g", c.Name, factor)
	}
	return c
}

// Generate builds a synthetic dataset per cfg. Duplicate triples are
// dropped, so the realized size can be slightly below cfg.Triples.
func Generate(cfg GenConfig) *Dataset {
	cfg = cfg.withDefaults()
	if cfg.Entities <= 1 || cfg.Relations < 1 || cfg.Triples < 1 {
		panic(fmt.Sprintf("kg: invalid GenConfig %+v", cfg))
	}
	if cfg.Communities > cfg.Entities {
		cfg.Communities = cfg.Entities
	}
	rng := xrand.New(cfg.Seed)

	// Assign entities to communities round-robin so every community has
	// members, then index members per community.
	community := make([]int, cfg.Entities)
	members := make([][]int32, cfg.Communities)
	for e := 0; e < cfg.Entities; e++ {
		c := e % cfg.Communities
		community[e] = c
		members[c] = append(members[c], int32(e))
	}

	// Each relation links a source community to a target community.
	relSrc := make([]int, cfg.Relations)
	relDst := make([]int, cfg.Relations)
	for r := 0; r < cfg.Relations; r++ {
		relSrc[r] = rng.Intn(cfg.Communities)
		relDst[r] = rng.Intn(cfg.Communities)
	}

	relZipf := xrand.NewZipf(rng.Split(1), cfg.Relations, cfg.RelationZipf)
	// One entity-Zipf sampler per community size class; sizes differ by at
	// most 1 under round-robin, so one sampler per distinct size suffices.
	entZipf := map[int]*xrand.Zipf{}
	zipfFor := func(n int) *xrand.Zipf {
		z, ok := entZipf[n]
		if !ok {
			z = xrand.NewZipf(rng.Split(uint64(100+n)), n, cfg.EntityZipf)
			entZipf[n] = z
		}
		return z
	}

	seen := make(map[Triple]struct{}, cfg.Triples)
	triples := make([]Triple, 0, cfg.Triples)
	attempts := 0
	maxAttempts := cfg.Triples * 20
	for len(triples) < cfg.Triples && attempts < maxAttempts {
		attempts++
		r := relZipf.Draw()
		var h, t int32
		if rng.Float64() < cfg.NoiseFrac {
			h = int32(rng.Intn(cfg.Entities))
			t = int32(rng.Intn(cfg.Entities))
		} else {
			src := members[relSrc[r]]
			dst := members[relDst[r]]
			h = src[zipfFor(len(src)).Draw()]
			t = dst[zipfFor(len(dst)).Draw()]
		}
		if h == t {
			continue
		}
		tr := Triple{H: h, R: int32(r), T: t}
		if _, dup := seen[tr]; dup {
			continue
		}
		seen[tr] = struct{}{}
		triples = append(triples, tr)
	}

	// Shuffle and split.
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	nValid := int(cfg.ValidFrac * float64(len(triples)))
	nTest := int(cfg.TestFrac * float64(len(triples)))
	nTrain := len(triples) - nValid - nTest

	d := &Dataset{
		Name:         cfg.Name,
		NumEntities:  cfg.Entities,
		NumRelations: cfg.Relations,
		Train:        triples[:nTrain],
		Valid:        triples[nTrain : nTrain+nValid],
		Test:         triples[nTrain+nValid:],
	}
	return d
}

// FB15KMini returns the scaled-down stand-in for FB15K used throughout the
// experiment harness: same relation/entity ratio flavor as FB15K, sized for
// laptop budgets.
func FB15KMini(seed uint64) GenConfig {
	return GenConfig{
		Name:      "fb15k-mini",
		Entities:  3000,
		Relations: 400,
		Triples:   60000,
		Seed:      seed,
	}
}

// FB250KMini returns the scaled-down stand-in for FB250K: more entities and
// relations and 4x the triples of FB15KMini, preserving FB250K's "bigger and
// sparser" character relative to FB15K.
func FB250KMini(seed uint64) GenConfig {
	return GenConfig{
		Name:      "fb250k-mini",
		Entities:  12000,
		Relations: 1200,
		Triples:   240000,
		Seed:      seed,
	}
}

// FB15KFull and FB250KFull mirror the published dataset dimensions for runs
// with real data volumes (requires substantial compute).
func FB15KFull(seed uint64) GenConfig {
	return GenConfig{
		Name:      "fb15k-full",
		Entities:  14951,
		Relations: 1345,
		Triples:   592213,
		Seed:      seed,
	}
}

// FB250KFull mirrors FB250K's published dimensions (~16M facts).
func FB250KFull(seed uint64) GenConfig {
	return GenConfig{
		Name:      "fb250k-full",
		Entities:  240000,
		Relations: 9280,
		Triples:   16000000,
		Seed:      seed,
	}
}

// presets names the synthetic datasets a command line can ask for.
var presets = map[string]func(seed uint64) GenConfig{
	"fb15k-mini":  FB15KMini,
	"fb250k-mini": FB250KMini,
	"fb15k-full":  FB15KFull,
	"fb250k-full": FB250KFull,
}
