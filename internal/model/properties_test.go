package model

import (
	"math"
	"testing"
	"testing/quick"

	"kgedist/internal/kg"
	"kgedist/internal/xrand"
)

// Structural invariants of the scoring functions, checked with testing/quick
// over random parameters.

// randParamsFor builds small random parameters for property tests.
func randParamsFor(m Model, seed uint64) *Params {
	p := NewParams(m, 6, 4)
	p.Init(m, xrand.New(seed))
	return p
}

// Property: DistMult is symmetric in head and tail.
func TestQuickDistMultSymmetry(t *testing.T) {
	m := NewDistMult(5)
	f := func(seed uint64, h, r, tt uint8) bool {
		p := randParamsFor(m, seed)
		tr := kg.Triple{H: int32(h % 6), R: int32(r % 4), T: int32(tt % 6)}
		rev := kg.Triple{H: tr.T, R: tr.R, T: tr.H}
		// (h*r)*t and (t*r)*h round differently; symmetric up to ulps.
		return math.Abs(float64(m.Score(p, tr)-m.Score(p, rev))) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: TransE's score is invariant under translating head and tail by
// the same vector.
func TestQuickTransETranslationInvariance(t *testing.T) {
	m := NewTransE(4)
	f := func(seed uint64, deltaRaw int8) bool {
		p := randParamsFor(m, seed)
		tr := kg.Triple{H: 0, R: 0, T: 1}
		before := m.Score(p, tr)
		delta := float32(deltaRaw) / 64
		for i := 0; i < m.Width(); i++ {
			p.Entity.Row(0)[i] += delta
			p.Entity.Row(1)[i] += delta
		}
		after := m.Score(p, tr)
		return math.Abs(float64(after-before)) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the distance-based model (TransE) never scores above zero.
func TestQuickDistanceModelsNonPositive(t *testing.T) {
	m := NewTransE(4)
	f := func(seed uint64, h, r, tt uint8) bool {
		p := randParamsFor(m, seed)
		tr := kg.Triple{H: int32(h % 6), R: int32(r % 4), T: int32(tt % 6)}
		return m.Score(p, tr) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every model, the analytic gradient's directional derivative
// matches a finite-difference probe along a random coordinate.
func TestQuickGradientDirectionalDerivative(t *testing.T) {
	names := []string{"complex", "distmult", "transe"}
	f := func(seed uint64, ni uint8, col uint8) bool {
		m := New(names[int(ni)%len(names)], 3)
		p := randParamsFor(m, seed)
		tr := kg.Triple{H: 1, R: 2, T: 3}
		w := m.Width()
		c := int(col) % w
		gh := make([]float32, w)
		gr := make([]float32, w)
		gt := make([]float32, w)
		m.AccumulateScoreGrad(p, tr, 1, gh, gr, gt)
		num := numericalGrad(m, p, tr, "entity", 1, c)
		return math.Abs(float64(gh[c])-num) < 5e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogisticLoss is non-negative, and its two labels are mirror
// images: loss(s, +1) == loss(-s, -1).
func TestQuickLogisticLossMirror(t *testing.T) {
	f := func(raw int16) bool {
		s := float32(raw) / 1024
		lp := LogisticLoss(s, 1)
		ln := LogisticLoss(-s, -1)
		if lp < 0 || ln < 0 {
			return false
		}
		return math.Abs(float64(lp-ln)) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SelectHardest returns a triple differing from the positive in
// exactly one entity slot and never in the relation.
func TestQuickSelectHardestShape(t *testing.T) {
	m := NewDistMult(4)
	f := func(seed uint64, n uint8) bool {
		p := randParamsFor(m, seed)
		s := NewNegSampler(6, xrand.New(seed+1))
		pos := kg.Triple{H: 0, R: 1, T: 2}
		neg, _ := SelectHardest(m, p, s, pos, int(n%8)+1, nil)
		if neg.R != pos.R {
			return false
		}
		headChanged := neg.H != pos.H
		tailChanged := neg.T != pos.T
		return headChanged != tailChanged // exactly one side corrupted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
