package model

import (
	"sync"

	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

// NegSampler draws negative triples by corrupting the head or tail of a
// positive triple with a uniformly random entity (paper §3.1).
type NegSampler struct {
	numEntities int
	rng         *xrand.RNG
}

// NewNegSampler returns a sampler over the given entity universe.
func NewNegSampler(numEntities int, rng *xrand.RNG) *NegSampler {
	if numEntities < 2 {
		panic("model: negative sampling needs at least two entities")
	}
	return &NegSampler{numEntities: numEntities, rng: rng}
}

// Corrupt returns a negative triple derived from pos: with probability 1/2
// the head is replaced, otherwise the tail. The replacement differs from the
// entity it replaces.
func (s *NegSampler) Corrupt(pos kg.Triple) kg.Triple {
	neg := pos
	if s.rng.Bernoulli(0.5) {
		for {
			e := int32(s.rng.Intn(s.numEntities))
			if e != pos.H {
				neg.H = e
				break
			}
		}
	} else {
		for {
			e := int32(s.rng.Intn(s.numEntities))
			if e != pos.T {
				neg.T = e
				break
			}
		}
	}
	return neg
}

// CorruptN fills dst with n independent corruptions of pos, reusing dst's
// backing array when it has capacity.
func (s *NegSampler) CorruptN(pos kg.Triple, n int, dst []kg.Triple) []kg.Triple {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, s.Corrupt(pos))
	}
	return dst
}

// Rows resolves embedding rows by id — the one question the per-triple
// arithmetic asks of its storage. *Params answers it from full tables; the
// trainer's sharded tables answer it from an owned shard plus pulled rows.
type Rows interface {
	EntityRow(id int32) []float32
	RelationRow(id int32) []float32
}

// EntityRow implements Rows.
func (p *Params) EntityRow(id int32) []float32 { return p.Entity.Row(int(id)) }

// RelationRow implements Rows.
func (p *Params) RelationRow(id int32) []float32 { return p.Relation.Row(int(id)) }

// Hardest returns the index of the candidate the model finds hardest to
// classify, given the candidates' scores — the one with the LEAST negative
// (i.e. highest) score; the first wins a tie. It is the argmax of the
// paper's negative sample selection (§4.5), shared by SelectHardest and the
// trainer.
func Hardest(scores []float32) int {
	best := 0
	for i, sc := range scores {
		if sc > scores[best] {
			best = i
		}
	}
	return best
}

// hardestBatches recycles SelectHardest's scoring buffers.
var hardestBatches = sync.Pool{New: func() any { return new(Batch) }}

// SelectHardest implements the paper's negative sample selection (§4.5):
// draw n negatives, score each with a forward pass, and return the hardest
// (see Hardest). The second return value is the number of extra forward-pass
// scores spent, for compute-time accounting.
func SelectHardest(m Model, p *Params, s *NegSampler, pos kg.Triple, n int, scratch []kg.Triple) (kg.Triple, int) {
	cands := s.CorruptN(pos, max(n, 1), scratch)
	if len(cands) == 1 {
		return cands[0], 0
	}
	b := hardestBatches.Get().(*Batch)
	defer hardestBatches.Put(b)
	return cands[Hardest(b.ScoreTriples(m, p, cands))], n
}
