package grad

import (
	"math"
	"testing"

	"kgedist/internal/xrand"
)

// residualNormSum returns the sum of the 2-norms of r's banked rows, a
// measure of the compression error it still owes.
func residualNormSum(r *Residual) float64 {
	_, norms := r.rows.NormStats()
	var s float64
	for _, n := range norms {
		s += float64(n)
	}
	return s
}

func TestResidualLifecycle(t *testing.T) {
	t.Parallel()
	r := NewResidual(4)
	if r.Len() != 0 {
		t.Fatal("fresh residual not empty")
	}
	g := NewSparseGrad(4)
	copy(g.Row(1), []float32{1, -2, 0.5, 3})
	e := Quantize(g, OneBitMax, nil)
	r.Update(g, e)
	if r.Len() != 1 {
		t.Fatalf("residual rows = %d", r.Len())
	}
	if residualNormSum(r) <= 0 {
		t.Fatal("quantization of a non-uniform row must leave error")
	}

	// Next step: residual folds into the fresh gradient, then clears.
	g2 := NewSparseGrad(4)
	copy(g2.Row(1), []float32{1, 1, 1, 1})
	r.AddInto(g2)
	if r.Len() != 0 {
		t.Fatal("residual not consumed")
	}
	row, _ := g2.Get(1)
	// g2 = fresh + (g - dequant(g)); dequant row = sign*3.
	dec := []float32{3, -3, 3, 3}
	orig := []float32{1, -2, 0.5, 3}
	for i := range row {
		want := 1 + orig[i] - dec[i]
		if math.Abs(float64(row[i]-want)) > 1e-6 {
			t.Fatalf("col %d: got %v want %v", i, row[i], want)
		}
	}
}

func TestResidualKeepsRowsNotInGradient(t *testing.T) {
	t.Parallel()
	r := NewResidual(2)
	g := NewSparseGrad(2)
	copy(g.Row(5), []float32{1, -1})
	e := Quantize(g, OneBitAvg, nil)
	r.Update(g, e)

	// A later step touching a different row must not consume row 5.
	g2 := NewSparseGrad(2)
	g2.Row(9)[0] = 1
	r.AddInto(g2)
	if r.Len() != 1 {
		t.Fatal("unrelated row consumed the residual")
	}
}

func TestResidualWidthMismatchPanics(t *testing.T) {
	t.Parallel()
	r := NewResidual(2)
	g := NewSparseGrad(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.AddInto(g)
}

func TestResidualReducesLongRunError(t *testing.T) {
	t.Parallel()
	// Error feedback should track a constant gradient better than plain
	// sign compression: the accumulated applied update approaches the true
	// sum. Simulate T steps of gradient [0.1, -1] with OneBitMax.
	const T = 200
	true0, true1 := 0.0, 0.0
	applied0, applied1 := 0.0, 0.0
	appliedNoFB0 := 0.0
	r := NewResidual(2)
	for i := 0; i < T; i++ {
		g := NewSparseGrad(2)
		copy(g.Row(0), []float32{0.1, -1})
		true0 += 0.1
		true1 += -1
		r.AddInto(g)
		e := Quantize(g, OneBitMax, nil)
		r.Update(g, e)
		dst := NewSparseGrad(2)
		Dequantize(e, dst)
		dec, _ := dst.Get(0)
		applied0 += float64(dec[0])
		applied1 += float64(dec[1])

		// Without feedback the small coordinate is always sent as +1.
		gn := NewSparseGrad(2)
		copy(gn.Row(0), []float32{0.1, -1})
		en := Quantize(gn, OneBitMax, nil)
		dn := NewSparseGrad(2)
		Dequantize(en, dn)
		decn, _ := dn.Get(0)
		appliedNoFB0 += float64(decn[0])
	}
	errFB := math.Abs(applied0 - true0)
	errNoFB := math.Abs(appliedNoFB0 - true0)
	if errFB >= errNoFB/4 {
		t.Fatalf("error feedback did not help: fb err %v, no-fb err %v", errFB, errNoFB)
	}
	if math.Abs(applied1-true1) > math.Abs(true1)*0.5 {
		t.Fatalf("dominant coordinate drifted: applied %v true %v", applied1, true1)
	}
}

func TestResidualStableUnderRandomGradients(t *testing.T) {
	t.Parallel()
	// With error feedback, the residual norm must stay bounded (it does not
	// blow up over many steps).
	rng := xrand.New(13)
	r := NewResidual(8)
	var last float64
	for i := 0; i < 300; i++ {
		g := NewSparseGrad(8)
		row := g.Row(0)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
		r.AddInto(g)
		e := Quantize(g, OneBitMax, nil)
		r.Update(g, e)
		last = residualNormSum(r)
	}
	if last > 100 {
		t.Fatalf("residual norm diverged: %v", last)
	}
}
