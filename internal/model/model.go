// Package model implements the knowledge-graph embedding models: ComplEx
// (the paper's model), plus DistMult and TransE as baselines the strategies
// generalize to. Gradients are hand-derived closed forms, verified against
// numerical differentiation in the tests.
package model

import (
	"math"

	"kgedist/internal/kg"
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// Params hold the trainable state: one embedding row per entity and per
// relation. Width (floats per row) depends on the model: 2*Dim for ComplEx
// (real and imaginary halves concatenated), Dim for the real-valued models.
type Params struct {
	Entity   *tensor.Matrix
	Relation *tensor.Matrix
}

// NewParams allocates zeroed parameters for a model over the dataset shape.
func NewParams(m Model, numEntities, numRelations int) *Params {
	return &Params{
		Entity:   tensor.NewMatrix(numEntities, m.Width()),
		Relation: tensor.NewMatrix(numRelations, m.Width()),
	}
}

// Init fills parameters with the model's preferred random initialization.
func (p *Params) Init(m Model, rng *xrand.RNG) {
	sigma := float32(1.0 / math.Sqrt(float64(m.Dim())))
	p.Entity.RandomizeNormal(sigma, rng.NormFloat64)
	p.Relation.RandomizeNormal(sigma, rng.NormFloat64)
}

// Clone deep-copies the parameters.
func (p *Params) Clone() *Params {
	return &Params{Entity: p.Entity.Clone(), Relation: p.Relation.Clone()}
}

// Model scores triples and exposes the gradient of the score with respect
// to the three embedding rows involved.
type Model interface {
	// Name identifies the model ("complex", "distmult", "transe").
	Name() string
	// Dim is the nominal embedding dimension.
	Dim() int
	// Width is the number of floats per embedding row (2*Dim for ComplEx).
	Width() int
	// Score returns the plausibility score of a triple; higher = more
	// plausible.
	Score(p *Params, t kg.Triple) float32
	// ScoreRows scores from explicit embedding rows (head, relation, tail),
	// each Width() long — the entry point for callers whose rows do not sit
	// in a Params (the trainer's sharded tables, scratch snapshots).
	ScoreRows(h, r, t []float32) float32
	// AccumulateScoreGrad adds coef * dScore/dRow into the three gradient
	// rows (head entity, relation, tail entity), each Width() long.
	AccumulateScoreGrad(p *Params, t kg.Triple, coef float32, gh, gr, gt []float32)
	// AccumulateScoreGradRows is AccumulateScoreGrad over explicit embedding
	// rows, pairing with ScoreRows.
	AccumulateScoreGradRows(h, r, t []float32, coef float32, gh, gr, gt []float32)
	// ScoreFlops estimates floating-point operations of one Score call,
	// used by the simulated compute-time model.
	ScoreFlops() float64
	// GradFlops estimates flops of one AccumulateScoreGrad call.
	GradFlops() float64
}

// scoreVia implements Score by fetching the triple's rows from the store
// and delegating to ScoreRows; every concrete model uses it.
func scoreVia(m Model, p *Params, t kg.Triple) float32 {
	return m.ScoreRows(p.Entity.Row(int(t.H)), p.Relation.Row(int(t.R)), p.Entity.Row(int(t.T)))
}

// gradVia implements AccumulateScoreGrad via AccumulateScoreGradRows.
func gradVia(m Model, p *Params, t kg.Triple, coef float32, gh, gr, gt []float32) {
	m.AccumulateScoreGradRows(p.Entity.Row(int(t.H)), p.Relation.Row(int(t.R)), p.Entity.Row(int(t.T)), coef, gh, gr, gt)
}

// New constructs a model by name; the canonical names are "complex",
// "distmult" and "transe". It panics on an unknown name.
func New(name string, dim int) Model {
	switch name {
	case "complex":
		return NewComplEx(dim)
	case "distmult":
		return NewDistMult(dim)
	case "transe":
		return NewTransE(dim)
	}
	panic("model: unknown model " + name)
}

// IsKnownModel reports whether New accepts the name. Callers that receive a
// model name from untrusted bytes (checkpoint headers, request payloads)
// must check it here instead of letting New panic.
func IsKnownModel(name string) bool {
	switch name {
	case "complex", "distmult", "transe":
		return true
	}
	return false
}

// Sigmoid is the logistic function, exposed for loss computations.
func Sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}

// LogisticLoss returns log(1 + exp(-y*score)), the paper's per-triple loss
// (§3.1), with y = +1 for positive and -1 for negative triples.
func LogisticLoss(score float32, y float32) float32 {
	x := float64(-y * score)
	// Stable softplus.
	if x > 30 {
		return float32(x)
	}
	return float32(math.Log1p(math.Exp(x)))
}

// LogisticLossGrad returns dLoss/dScore for LogisticLoss.
func LogisticLossGrad(score float32, y float32) float32 {
	return -y * Sigmoid(-y*score)
}

// ---- ComplEx ---------------------------------------------------------------

// ComplEx is the complex bilinear model of Trouillon et al. (2016). Each
// embedding row stores [Re(0..Dim) | Im(0..Dim)].
type ComplEx struct{ dim int }

// NewComplEx returns a ComplEx model with the given complex dimension.
func NewComplEx(dim int) *ComplEx {
	if dim <= 0 {
		panic("model: non-positive dimension")
	}
	return &ComplEx{dim: dim}
}

// Name implements Model.
func (m *ComplEx) Name() string { return "complex" }

// Dim implements Model.
func (m *ComplEx) Dim() int { return m.dim }

// Width implements Model: real and imaginary halves.
func (m *ComplEx) Width() int { return 2 * m.dim }

// Score implements the ComplEx scoring function
//
//	phi(h,r,t) = <Re r, Re h, Re t> + <Re r, Im h, Im t>
//	           + <Im r, Re h, Im t> - <Im r, Im h, Re t>
func (m *ComplEx) Score(p *Params, t kg.Triple) float32 { return scoreVia(m, p, t) }

// ScoreRows implements Model over explicit rows.
func (m *ComplEx) ScoreRows(h, r, tt []float32) float32 {
	d := m.dim
	hr, hi := h[:d], h[d:]
	rr, ri := r[:d], r[d:]
	tr, ti := tt[:d], tt[d:]
	return tensor.Dot3(rr, hr, tr) + tensor.Dot3(rr, hi, ti) +
		tensor.Dot3(ri, hr, ti) - tensor.Dot3(ri, hi, tr)
}

// AccumulateScoreGrad implements Model with the closed-form partials of the
// ComplEx score.
func (m *ComplEx) AccumulateScoreGrad(p *Params, t kg.Triple, coef float32, gh, gr, gt []float32) {
	gradVia(m, p, t, coef, gh, gr, gt)
}

// AccumulateScoreGradRows implements Model over explicit rows.
func (m *ComplEx) AccumulateScoreGradRows(h, r, tt []float32, coef float32, gh, gr, gt []float32) {
	w := 2 * m.dim
	tensor.ComplExGrad(h[:w], r[:w], tt[:w], coef, gh[:w], gr[:w], gt[:w])
}

// ScoreFlops implements Model.
func (m *ComplEx) ScoreFlops() float64 { return float64(12 * m.dim) }

// GradFlops implements Model.
func (m *ComplEx) GradFlops() float64 { return float64(30 * m.dim) }

// ---- DistMult --------------------------------------------------------------

// DistMult is the real bilinear-diagonal model (the real restriction of
// ComplEx): phi = <h, r, t>.
type DistMult struct{ dim int }

// NewDistMult returns a DistMult model.
func NewDistMult(dim int) *DistMult {
	if dim <= 0 {
		panic("model: non-positive dimension")
	}
	return &DistMult{dim: dim}
}

// Name implements Model.
func (m *DistMult) Name() string { return "distmult" }

// Dim implements Model.
func (m *DistMult) Dim() int { return m.dim }

// Width implements Model.
func (m *DistMult) Width() int { return m.dim }

// Score implements Model.
func (m *DistMult) Score(p *Params, t kg.Triple) float32 { return scoreVia(m, p, t) }

// ScoreRows implements Model over explicit rows.
func (m *DistMult) ScoreRows(h, r, t []float32) float32 {
	return tensor.Dot3(h, r, t)
}

// AccumulateScoreGrad implements Model.
func (m *DistMult) AccumulateScoreGrad(p *Params, t kg.Triple, coef float32, gh, gr, gt []float32) {
	gradVia(m, p, t, coef, gh, gr, gt)
}

// AccumulateScoreGradRows implements Model over explicit rows.
func (m *DistMult) AccumulateScoreGradRows(h, r, tt []float32, coef float32, gh, gr, gt []float32) {
	tensor.AxpyMul(coef, r, tt, gh)
	tensor.AxpyMul(coef, h, tt, gr)
	tensor.AxpyMul(coef, h, r, gt)
}

// ScoreFlops implements Model.
func (m *DistMult) ScoreFlops() float64 { return float64(3 * m.dim) }

// GradFlops implements Model.
func (m *DistMult) GradFlops() float64 { return float64(9 * m.dim) }

// ---- TransE ----------------------------------------------------------------

// TransE scores by translation distance. To fit the logistic-loss training
// loop shared by all models, the score is the negated squared L2 distance
// phi = -||h + r - t||^2; higher is still more plausible.
type TransE struct{ dim int }

// NewTransE returns a TransE model.
func NewTransE(dim int) *TransE {
	if dim <= 0 {
		panic("model: non-positive dimension")
	}
	return &TransE{dim: dim}
}

// Name implements Model.
func (m *TransE) Name() string { return "transe" }

// Dim implements Model.
func (m *TransE) Dim() int { return m.dim }

// Width implements Model.
func (m *TransE) Width() int { return m.dim }

// Score implements Model.
func (m *TransE) Score(p *Params, t kg.Triple) float32 { return scoreVia(m, p, t) }

// ScoreRows implements Model over explicit rows.
func (m *TransE) ScoreRows(h, r, tt []float32) float32 {
	var s float64
	for i := range h {
		d := float64(h[i] + r[i] - tt[i])
		s += d * d
	}
	return float32(-s)
}

// AccumulateScoreGrad implements Model: d(phi)/dh = -2(h+r-t), etc.
func (m *TransE) AccumulateScoreGrad(p *Params, t kg.Triple, coef float32, gh, gr, gt []float32) {
	gradVia(m, p, t, coef, gh, gr, gt)
}

// AccumulateScoreGradRows implements Model over explicit rows.
func (m *TransE) AccumulateScoreGradRows(h, r, tt []float32, coef float32, gh, gr, gt []float32) {
	for i := range h {
		diff := h[i] + r[i] - tt[i]
		g := -2 * coef * diff
		gh[i] += g
		gr[i] += g
		gt[i] -= g
	}
}

// ScoreFlops implements Model.
func (m *TransE) ScoreFlops() float64 { return float64(4 * m.dim) }

// GradFlops implements Model.
func (m *TransE) GradFlops() float64 { return float64(8 * m.dim) }
