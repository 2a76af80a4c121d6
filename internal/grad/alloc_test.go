package grad

import (
	"testing"

	"kgedist/internal/xrand"
)

// fillGrad materializes rows*width gradient values into g (clearing first),
// reusing g's storage so the fill itself is allocation-free once warm.
func fillGrad(g *SparseGrad, rows int, rng *xrand.RNG) {
	g.Clear()
	for i := 0; i < rows; i++ {
		row := g.Row(int32(i * 3))
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
}

// The encode/decode hot path must be allocation-free after warm-up: this is
// the per-exchange work every rank does for every batch (ISSUE 4 acceptance
// criterion, asserted with testing.AllocsPerRun).
func TestQuantizeDequantizeAllocFree(t *testing.T) {
	for _, s := range allSchemes {
		g := NewSparseGrad(32)
		rng := xrand.New(11)
		e := new(Encoded)
		dst := NewSparseGrad(32)
		// Warm: materialize row working set, scratch, and Encoded storage.
		fillGrad(g, 128, rng)
		QuantizeInto(e, g, s, rng)
		Dequantize(e, dst)
		allocs := testing.AllocsPerRun(50, func() {
			fillGrad(g, 128, rng)
			QuantizeInto(e, g, s, rng)
			dst.Clear()
			Dequantize(e, dst)
		})
		if allocs != 0 {
			t.Errorf("%v: quantize/dequantize cycle allocates %.1f allocs/op, want 0", s, allocs)
		}
	}
}

func TestUnmarshalIntoAllocFree(t *testing.T) {
	g := NewSparseGrad(32)
	fillGrad(g, 128, xrand.New(3))
	buf := Quantize(g, OneBitMax, nil).Marshal()
	e := new(Encoded)
	if err := UnmarshalInto(e, buf); err != nil { // warm storage
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := UnmarshalInto(e, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("UnmarshalInto allocates %.1f allocs/op, want 0", allocs)
	}
}

// The per-batch SparseGrad cycle (Clear, re-materialize rows, sort indices)
// must recycle row storage through the free list.
func TestSparseGradCycleAllocFree(t *testing.T) {
	g := NewSparseGrad(32)
	cycle := func() {
		g.Clear()
		for r := 0; r < 256; r++ {
			g.Row(int32(r))[0] = 1
		}
		_ = g.Indices()
	}
	cycle() // warm the free list and index cache
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Errorf("SparseGrad batch cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// Selection runs on every batch of the RS strategies: norms, threshold and
// drops must all come out of accumulator-owned scratch.
func TestSelectCycleAllocFree(t *testing.T) {
	g := NewSparseGrad(32)
	rng := xrand.New(7)
	cycle := func() {
		fillGrad(g, 256, rng)
		Select(g, SelectBernoulli, rng)
		Select(g, SelectAvgThreshold, rng)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("select cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// The full error-feedback step of the compression ladder: consume the bank,
// bank the rows selection drops whole (SetRow via SelectEF), encode and bank
// the quantization error in one pass.
func TestResidualCycleAllocFree(t *testing.T) {
	g := NewSparseGrad(32)
	rng := xrand.New(5)
	r := NewResidual(32)
	e := new(Encoded)
	step := func() {
		fillGrad(g, 64, rng)
		r.AddInto(g)
		SelectEF(g, SelectBernoulli, rng, r)
		r.QuantizeInto(e, g, OneBitMax, rng)
	}
	step()
	step() // second warm-up exercises the residual free list path
	allocs := testing.AllocsPerRun(50, step)
	if allocs != 0 {
		t.Errorf("residual feedback step allocates %.1f allocs/op, want 0", allocs)
	}
}

// QuantizeInto must be bit-identical to the allocating Quantize for the same
// seed — the *Into rewrite may not change RNG consumption order (ISSUE 4:
// quantization stays bit-identical for a fixed seed).
func TestQuantizeIntoMatchesQuantize(t *testing.T) {
	for _, s := range []Scheme{OneBitMax, OneBitAvg, TwoBitTernary, NoQuant} {
		g := NewSparseGrad(16)
		fillGrad(g, 40, xrand.New(9))
		want := Quantize(g, s, xrand.New(77))
		e := &Encoded{ // dirty, oversized storage: reuse must fully overwrite
			Indices: make([]int32, 500),
			Scales:  make([]float32, 500),
			Bits:    make([]byte, 5000),
		}
		for i := range e.Bits {
			e.Bits[i] = 0xFF
		}
		QuantizeInto(e, g, s, xrand.New(77))
		if string(e.Marshal()) != string(want.Marshal()) {
			t.Errorf("%v: QuantizeInto wire bytes differ from Quantize", s)
		}
	}
}

// Decoding into dirty storage, too short in one slice and oversized in
// another, must reproduce the frame exactly.
func TestUnmarshalIntoReusesDirtyStorage(t *testing.T) {
	g := NewSparseGrad(16)
	fillGrad(g, 40, xrand.New(2))
	buf := Quantize(g, TwoBitTernary, xrand.New(4)).Marshal()
	e := &Encoded{Indices: make([]int32, 3), Scales: make([]float32, 999)}
	if err := UnmarshalInto(e, buf); err != nil {
		t.Fatal(err)
	}
	if string(e.Marshal()) != string(buf) {
		t.Error("UnmarshalInto into reused storage does not round-trip")
	}
}

// NormStats gathers its rows on the stack; warm, it allocates nothing.
func TestNormStatsAllocFree(t *testing.T) {
	g := NewSparseGrad(64)
	fillGrad(g, 300, xrand.New(4))
	g.NormStats()
	allocs := testing.AllocsPerRun(50, func() { g.NormStats() })
	if allocs != 0 {
		t.Errorf("NormStats allocates %.1f allocs/op, want 0", allocs)
	}
}
