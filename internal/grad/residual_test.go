package grad

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"kgedist/internal/tensor"
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
	r.QuantizeInto(new(Encoded), g, OneBitMax, nil)
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
	r.QuantizeInto(new(Encoded), g, OneBitAvg, nil)

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
		e := new(Encoded)
		r.QuantizeInto(e, g, OneBitMax, nil)
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
		r.QuantizeInto(new(Encoded), g, OneBitMax, nil)
		last = residualNormSum(r)
	}
	if last > 100 {
		t.Fatalf("residual norm diverged: %v", last)
	}
}

// The error-feedback encode and the averaged decode each run as one pass
// per row. Their oracles are the multi-pass forms they replaced, kept here
// only: refUpdate after QuantizeInto, and Dequantize followed by a Scale of
// every row.

// refUpdate is the residual update that followed QuantizeInto: dequantize
// e into an empty accumulator, then store g_row − decoded_row for every row
// of g.
func refUpdate(r *Residual, g *SparseGrad, e *Encoded) {
	decoded := NewSparseGrad(g.Width())
	Dequantize(e, decoded)
	g.ForEach(func(id int32, row []float32) {
		dec, ok := decoded.Get(id)
		if !ok {
			return
		}
		res := r.rows.Row(id)
		for i := range res {
			res[i] = row[i] - dec[i]
		}
	})
}

// refDequantizeMean decodes every frame into dst and then divides each row
// of dst by p, as the exchange did before DequantizeMean.
func refDequantizeMean(frames []*Encoded, dst *SparseGrad, p int) {
	for _, f := range frames {
		Dequantize(f, dst)
	}
	if p > 1 {
		dst.ForEach(func(_ int32, row []float32) { tensor.Scale(1/float32(p), row) })
	}
}

// sameRows reports whether a and b hold the same ids with bit-identical
// rows, and describes the first difference.
func sameRows(a, b *SparseGrad) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows, oracle %d", b.Len(), a.Len())
	}
	var err error
	a.ForEach(func(id int32, want []float32) {
		got, ok := b.Get(id)
		switch {
		case err != nil:
		case !ok:
			err = fmt.Errorf("row %d missing", id)
		case !sameBits(want, got):
			err = fmt.Errorf("row %d: %x, oracle %x", id, floatBits(got), floatBits(want))
		}
	})
	return err
}

// ladderGrad fills g with kernelRows' shapes (−0, subnormals, ±Inf, NaN,
// all-zero rows) at scattered ids, the ids shifting with step so that some
// rows meet banked residual and some do not.
func ladderGrad(g *SparseGrad, step int, rng *xrand.RNG) {
	g.Clear()
	for k, row := range kernelRows(g.Width(), rng) {
		copy(g.Row(int32(3*k+step%2)), row)
	}
}

// Three error-feedback steps through the fused encode and through the
// sequence it replaced, AddInto → [SelectEF] → QuantizeInto → refUpdate,
// from the same seeds: every frame, residual row and rng state must be
// bit-identical, for every scheme and row widths 1–70.
func TestResidualQuantizeIntoMatchesOracle(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for w := 1; w <= 70; w++ {
			rng := xrand.New(uint64(w)*31 + uint64(s))
			want, got := NewResidual(w), NewResidual(w)
			gw, gg := NewSparseGrad(w), NewSparseGrad(w)
			ew, eg := new(Encoded), new(Encoded)
			for step := 0; step < 3; step++ {
				ladderGrad(gw, step, rng)
				gw.ForEach(func(id int32, row []float32) { copy(gg.Row(id), row) })
				gg.ForEach(func(id int32, _ []float32) {
					if _, ok := gw.Get(id); !ok {
						gg.Drop(id)
					}
				})
				want.AddInto(gw)
				got.AddInto(gg)
				seed := uint64(1000*w + step)
				if step == 2 {
					SelectEF(gw, SelectBernoulli, xrand.New(seed), want)
					SelectEF(gg, SelectBernoulli, xrand.New(seed), got)
				}
				rw, rg := xrand.New(seed+1), xrand.New(seed+1)
				QuantizeInto(ew, gw, s, rw)
				refUpdate(want, gw, ew)
				got.QuantizeInto(eg, gg, s, rg)
				what := fmt.Sprintf("%v w=%d step %d", s, w, step)
				if !bytes.Equal(eg.Marshal(), ew.Marshal()) {
					t.Fatalf("%s: frame differs from QuantizeInto's", what)
				}
				if *rw != *rg {
					t.Fatalf("%s: rng state diverged", what)
				}
				if err := sameRows(want.rows, got.rows); err != nil {
					t.Fatalf("%s: residual %v", what, err)
				}
			}
		}
	}
}

// errorRow adds negated decodes into a copy of the row; the oracle decodes
// into a +0 row and subtracts, as refUpdate does. They must agree for
// every scheme on rows holding every special, under arbitrary payloads and
// special scales, signalling NaNs and ±0 among them.
func TestErrorRowMatchesDecodeThenSubtract(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for _, w := range []int{1, 3, 7, 8, 9, 31, 32, 33, 64, 65, 70} {
			rng := xrand.New(uint64(w)*13 + uint64(s))
			buf := make([]byte, payloadBytesPerRow(s, w))
			for _, row := range kernelRows(w, rng) {
				for _, b := range specials {
					sc := math.Float32frombits(b)
					for i := range buf {
						buf[i] = byte(rng.Intn(256))
					}
					want := make([]float32, w)
					decodeRowAccum(s, sc, buf, want)
					for i, v := range row {
						want[i] = v - want[i]
					}
					got := make([]float32, w)
					errorRow(s, sc, buf, row, got)
					if !sameBits(want, got) {
						t.Fatalf("%v w=%d scale %#08x: error %x, oracle %x", s, w, b, floatBits(got), floatBits(want))
					}
				}
			}
		}
	}
}

// DequantizeMean of disjoint chunks must leave the bits the two-pass decode
// leaves, at P = 1 (no multiply), 2 and 3, for frames from the encoder and
// for arbitrary payloads under special scales, a NaN scale among them.
func TestDequantizeMeanMatchesOracle(t *testing.T) {
	t.Parallel()
	for _, s := range allSchemes {
		for w := 1; w <= 70; w++ {
			rng := xrand.New(uint64(w)*17 + uint64(s))
			g := NewSparseGrad(w)
			ladderGrad(g, 0, rng)
			e := Quantize(g, s, rng)
			per := payloadBytesPerRow(s, w)
			for k, b := range specials { // arbitrary payloads under special scales
				e.Indices = append(e.Indices, int32(1000+k))
				e.Scales = append(e.Scales, math.Float32frombits(b))
				for range per {
					e.Bits = append(e.Bits, byte(rng.Intn(256)))
				}
			}
			if s == NoQuant {
				clear(e.Scales)
			}
			// Three chunks over disjoint id ranges, as AllReduceEncoded
			// returns them.
			chunks := make([]*Encoded, 3)
			for c, cut := range [][2]int32{{0, 20}, {20, 1005}, {1005, math.MaxInt32}} {
				chunks[c] = new(Encoded)
				i0, i1 := e.RowRange(cut[0], cut[1])
				e.Range(i0, i1, chunks[c])
			}
			for _, p := range []int{1, 2, 3} {
				want, got := NewSparseGrad(w), NewSparseGrad(w)
				refDequantizeMean(chunks, want, p)
				for _, f := range chunks {
					DequantizeMean(f, got, p)
				}
				if err := sameRows(want, got); err != nil {
					t.Fatalf("%v w=%d P=%d: %v", s, w, p, err)
				}
			}
		}
	}
}

// A −0 sent at full precision still lands as +0, the sum +0 + (−0) the
// two-pass decode formed, at P = 1 and P = 3.
func TestDequantizeMeanNegativeZeroLandsPositive(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(9)
	for i := range g.Row(4) {
		g.Row(4)[i] = float32(math.Copysign(0, -1))
	}
	e := Quantize(g, NoQuant, nil)
	for _, p := range []int{1, 3} {
		dst := NewSparseGrad(9)
		DequantizeMean(e, dst, p)
		row, _ := dst.Get(4)
		for i, v := range row {
			if math.Float32bits(v) != 0 {
				t.Fatalf("P=%d: value %d is %#08x, want +0", p, i, math.Float32bits(v))
			}
		}
	}
}

// Averaging into a row dst already holds would scale the sum only partly;
// DequantizeMean refuses it.
func TestDequantizeMeanRejectsHeldRows(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	g.Row(3)[0] = 1
	e := Quantize(g, OneBitMax, nil)
	dst := NewSparseGrad(2)
	dst.Row(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DequantizeMean(e, dst, 3)
}
