package grad

import (
	"math"
	"testing"

	"kgedist/internal/xrand"
)

// statsBuf builds a packed controller statistics vector whose histogram holds
// the given bucket masses (remaining buckets zero) and whose row accumulators
// are consistent with one row of unit norm per mass unit.
func statsBuf(masses ...float64) []float32 {
	buf := make([]float32, CtrlStatsLen)
	var total float64
	for i, m := range masses {
		buf[i] = float32(m)
		total += m
	}
	buf[EntropyBuckets] = float32(total)   // rows
	buf[EntropyBuckets+1] = float32(total) // norm sum (unit norms)
	buf[EntropyBuckets+2] = float32(total) // norm square sum
	return buf
}

// normEntropy mirrors the controller's normalized-entropy formula for a set
// of bucket masses.
func normEntropy(masses ...float64) float64 {
	var total float64
	for _, m := range masses {
		total += m
	}
	h := 0.0
	for _, m := range masses {
		if m > 0 {
			p := m / total
			h -= p * math.Log2(p)
		}
	}
	return h / math.Log2(EntropyBuckets)
}

func TestBucketMapping(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    float32
		want int
	}{
		{0, 0},                // exact zero: zero exponent, bottom bucket
		{1e-30, 0},            // far below the floor clamps to 0
		{float32(0x1p-24), 0}, // the floor edge itself
		{float32(0x1p-22), 1}, // one bucket (two binary orders) up
		{1, 12},               // 2^0: (127-103)/2
		{-1, 12},              // sign is masked
		{float32(0x1p+5), 14},
		{float32(0x1p+6), 15}, // top edge
		{1e30, 15},            // far above the span clamps to the top
		{float32(math.Inf(1)), 15},
	}
	for _, c := range cases {
		if got := Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

// The ladder ascends one rung per satisfied hold window, holds through noisy
// epochs (run counter resets when the signal rises), parks when the next bar
// is out of reach, and never descends — the monotone-ascent invariant of
// DESIGN.md §13.
func TestControllerLadderDecision(t *testing.T) {
	t.Parallel()
	// Three entropy regimes against the bars {2bit: 0.50, 1bit: 0.48,
	// 1bit+rs: 0.44}: low qualifies for every bar, mid for the quantization
	// bars only, high for none.
	low := statsBuf(1, 1, 1)    // log2(3)/4 ~ 0.396
	mid := statsBuf(3, 3, 3, 1) // ~ 0.474
	high := make([]float32, CtrlStatsLen)
	for i := 0; i < EntropyBuckets; i++ {
		high[i] = 1 // uniform: exactly 1.0
	}
	high[EntropyBuckets] = EntropyBuckets

	if h := normEntropy(1, 1, 1); !(h < 0.44) {
		t.Fatalf("low regime entropy %v not below every bar", h)
	}
	if h := normEntropy(3, 3, 3, 1); !(h > 0.44 && h < 0.48) {
		t.Fatalf("mid regime entropy %v not between the 1bit+rs and 1bit bars", h)
	}

	c := NewController(2, 1)
	steps := []struct {
		buf      []float32
		wantNext Level
		wantStep bool
	}{
		{low, LevelFP32, false},   // epoch 1: warmup
		{low, LevelFP32, false},   // run 1 of hold 2
		{low, Level2Bit, true},    // run 2: step
		{high, Level2Bit, false},  // noisy epoch resets the run counter
		{low, Level2Bit, false},   // run restarts at 1
		{mid, Level1Bit, true},    // mid still clears the 1bit bar: step
		{mid, Level1Bit, false},   // mid does not clear the rs bar
		{mid, Level1Bit, false},   // parks
		{low, Level1Bit, false},   // run 1
		{low, Level1BitRS, true},  // top rung
		{low, Level1BitRS, false}, // already at the top: never steps again
	}
	for i, s := range steps {
		probe := c.AdvanceFrom(s.buf)
		if probe.Next != s.wantNext || probe.Stepped != s.wantStep {
			t.Fatalf("epoch %d: next=%v stepped=%v, want next=%v stepped=%v",
				i+1, probe.Next, probe.Stepped, s.wantNext, s.wantStep)
		}
		if probe.Next < probe.Level {
			t.Fatalf("epoch %d: ladder descended %v -> %v", i+1, probe.Level, probe.Next)
		}
		if c.Level() != probe.Next {
			t.Fatalf("epoch %d: Level() = %v, probe.Next = %v", i+1, c.Level(), probe.Next)
		}
	}
}

func TestControllerProbeStatistics(t *testing.T) {
	t.Parallel()
	c := NewController(0, 0)
	buf := statsBuf(2, 0, 6)
	probe := c.AdvanceFrom(buf)
	if want := normEntropy(2, 0, 6); math.Abs(probe.Entropy-want) > 1e-12 {
		t.Errorf("Entropy = %v, want %v", probe.Entropy, want)
	}
	if probe.Rows != 8 || probe.Values != 8 {
		t.Errorf("Rows/Values = %v/%v, want 8/8", probe.Rows, probe.Values)
	}
	// Unit norms: mean 1, variance 0.
	if probe.MeanNorm != 1 || probe.NormVar != 0 {
		t.Errorf("MeanNorm/NormVar = %v/%v, want 1/0", probe.MeanNorm, probe.NormVar)
	}
	// An empty epoch must not panic or divide by zero.
	empty := c.AdvanceFrom(make([]float32, CtrlStatsLen))
	if empty.Entropy != 0 || empty.MeanNorm != 0 {
		t.Errorf("empty epoch probe = %+v, want zero statistics", empty)
	}
}

func TestControllerDefaults(t *testing.T) {
	t.Parallel()
	c := NewController(0, 0)
	// With DefaultHold=2 and DefaultWarmup=2, a permanently qualifying
	// signal first steps at epoch 4: two warmup epochs, then two held.
	low := statsBuf(1, 1, 1)
	for epoch := 1; epoch <= 4; epoch++ {
		probe := c.AdvanceFrom(low)
		if want := epoch == 4; probe.Stepped != want {
			t.Fatalf("epoch %d: stepped=%v, want %v", epoch, probe.Stepped, want)
		}
	}
}

// Observe's accumulators must agree with a by-hand pass: row 2-norms and the
// strided bucket histogram, surfaced via StatsInto.
func TestObserveStatsInto(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(8)
	rng := xrand.New(21)
	fillGrad(g, 12, rng)

	c := NewController(0, 0)
	c.Observe(g)
	var got [CtrlStatsLen]float32
	c.StatsInto(got[:])

	var hist [EntropyBuckets]float64
	var rows, normSum, normSq float64
	g.ForEach(func(_ int32, row []float32) {
		var sq float64
		for _, v := range row {
			sq += float64(v) * float64(v)
		}
		n := math.Sqrt(sq)
		rows++
		normSum += n
		normSq += n * n
		for i := 0; i < len(row); i += ObserveStride {
			hist[Bucket(row[i])]++
		}
	})
	for i := range hist {
		if got[i] != float32(hist[i]) {
			t.Errorf("bucket %d: got %v, want %v", i, got[i], hist[i])
		}
	}
	if got[EntropyBuckets] != float32(rows) {
		t.Errorf("rows: got %v, want %v", got[EntropyBuckets], rows)
	}
	if math.Abs(float64(got[EntropyBuckets+1])-normSum) > 1e-3 {
		t.Errorf("normSum: got %v, want %v", got[EntropyBuckets+1], normSum)
	}
	if math.Abs(float64(got[EntropyBuckets+2])-normSq) > 1e-3 {
		t.Errorf("normSq: got %v, want %v", got[EntropyBuckets+2], normSq)
	}

	// AdvanceFrom resets the accumulators: a second StatsInto reads zeros.
	c.AdvanceFrom(got[:])
	c.StatsInto(got[:])
	for i, v := range got {
		if v != 0 {
			t.Fatalf("accumulator %d not reset: %v", i, v)
		}
	}
}

// The strided estimate converges to the exact stride-1 entropy on large
// i.i.d. gradients (the testkit property check bounds this statistically;
// here a fixed-seed sanity band).
func TestEntropyEstimatorVsExact(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(64)
	rng := xrand.New(31)
	fillGrad(g, 400, rng)

	c := NewController(0, 0)
	c.Observe(g)
	var buf [CtrlStatsLen]float32
	c.StatsInto(buf[:])
	strided := c.AdvanceFrom(buf[:]).Entropy
	exact := ExactEntropy(g)
	if math.Abs(strided-exact) > 0.02 {
		t.Errorf("strided entropy %v vs exact %v: off by %v", strided, exact, math.Abs(strided-exact))
	}
}

func TestObserveFlops(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(16)
	fillGrad(g, 10, xrand.New(1))
	want := float64(10*16)*2 + float64(10*16)/ObserveStride
	if got := ObserveFlops(g); got != want {
		t.Errorf("ObserveFlops = %v, want %v", got, want)
	}
}

func TestLevelAccessors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		l        Level
		name     string
		scheme   Scheme
		sparsify bool
		lossy    bool
	}{
		{LevelFP32, "fp32", NoQuant, false, false},
		{Level2Bit, "2bit", TwoBitTernary, false, true},
		{Level1Bit, "1bit", OneBitMax, false, true},
		{Level1BitRS, "1bit+rs", OneBitMax, true, true},
	}
	for _, c := range cases {
		if c.l.String() != c.name || c.l.Scheme() != c.scheme ||
			c.l.Sparsify() != c.sparsify || c.l.Lossy() != c.lossy {
			t.Errorf("%v: accessors = %q/%v/%v/%v", c.l, c.l.String(), c.l.Scheme(), c.l.Sparsify(), c.l.Lossy())
		}
	}
	if Level(99).String() != "unknown" {
		t.Error("out-of-range Level.String()")
	}
}

// The per-batch observe and per-epoch decide paths must be allocation-free
// after warm-up.
func TestControllerAllocFree(t *testing.T) {
	g := NewSparseGrad(32)
	rng := xrand.New(41)
	c := NewController(0, 0)
	var buf [CtrlStatsLen]float32
	step := func() {
		fillGrad(g, 64, rng)
		c.Observe(g)
		c.StatsInto(buf[:])
		c.AdvanceFrom(buf[:])
	}
	step()
	allocs := testing.AllocsPerRun(50, step)
	if allocs != 0 {
		t.Errorf("controller epoch cycle allocates %.1f allocs/op, want 0", allocs)
	}
}
