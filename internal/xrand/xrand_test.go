package xrand

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	t.Parallel()
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestSplitStability(t *testing.T) {
	t.Parallel()
	parent := New(7)
	c1 := parent.Split(3)
	// Drawing from the parent must not change what Split(3) yields.
	for i := 0; i < 10; i++ {
		parent.Uint64()
	}
	c2 := parent.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("Split(3) not stable under parent draws at %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	t.Parallel()
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	t.Parallel()
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Fatalf("bucket %d count %d deviates >5%% from %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(13)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v not near 0.5", mean)
	}
}

func TestFloat32Range(t *testing.T) {
	t.Parallel()
	r := New(14)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	t.Parallel()
	r := New(15)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-3) {
			t.Fatal("Bernoulli(-3) returned true")
		}
		if !r.Bernoulli(2) {
			t.Fatal("Bernoulli(2) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	t.Parallel()
	r := New(16)
	const p = 0.3
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()
	r := New(17)
	const draws = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v not near 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v not near 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	t.Parallel()
	r := New(20)
	s := []int{5, 5, 1, 2, 3, 3, 3}
	orig := map[int]int{}
	for _, v := range s {
		orig[v]++
	}
	r.ShuffleInts(s)
	got := map[int]int{}
	for _, v := range s {
		got[v]++
	}
	for k, v := range orig {
		if got[k] != v {
			t.Fatalf("shuffle changed multiset: key %d had %d now %d", k, v, got[k])
		}
	}
}

func TestZipfBounds(t *testing.T) {
	t.Parallel()
	r := New(21)
	z := NewZipf(r, 50, 1.1)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 50 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	t.Parallel()
	r := New(22)
	const n = 20
	z := NewZipf(r, n, 1.0)
	counts := make([]int, n)
	for i := 0; i < 200000; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 must dominate the tail decisively; adjacent ranks may wobble.
	if counts[0] <= counts[n-1] {
		t.Fatalf("Zipf head %d not more frequent than tail %d", counts[0], counts[n-1])
	}
	if counts[0] <= counts[n/2] {
		t.Fatalf("Zipf head %d not more frequent than middle %d", counts[0], counts[n/2])
	}
	// Ratio head/tail should be roughly n for s=1; allow wide tolerance.
	ratio := float64(counts[0]) / float64(counts[n-1]+1)
	if ratio < 5 {
		t.Fatalf("Zipf head/tail ratio %v too flat", ratio)
	}
}

func TestZipfN(t *testing.T) {
	t.Parallel()
	z := NewZipf(New(1), 17, 1.0)
	if z.N() != 17 {
		t.Fatalf("N() = %d", z.N())
	}
}

// Property: Intn always lies in range for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical Float64 streams.
func TestQuickDeterministicFloat(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfDraw(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 100000, 1.0)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Draw()
	}
	_ = sink
}

func TestShuffleSwapFunc(t *testing.T) {
	t.Parallel()
	r := New(23)
	s := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), s...)
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := map[string]bool{}
	for _, v := range s {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
}

// maskSpecials are the probabilities where BernoulliMask's bit-pattern
// classification could part from Bernoulli's comparisons: both zeros, the
// smallest subnormal, either side of 1, the infinities, negatives and NaNs
// of both signs with several payloads.
var maskSpecials = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x0000000000000001,                                         // smallest subnormal
	0x3FEFFFFFFFFFFFFF, 0x3FF0000000000000, 0x3FF0000000000001, // 1−ulp, 1, 1+ulp
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0xBFE0000000000000, 0x8000000000000001, 0xBFF0000000000000, // −0.5, −min subnormal, −1
	0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123, 0x7FFFFFFFFFFFFFFF, // NaNs
}

// checkMask requires BernoulliMask(p) to return the sequential Bernoulli
// calls' results as bits and to leave the generator where they leave it.
func checkMask(t *testing.T, seed uint64, p []float64) {
	t.Helper()
	seq, got := New(seed), New(seed)
	var want uint64
	for k, x := range p {
		if seq.Bernoulli(x) {
			want |= 1 << k
		}
	}
	if m := got.BernoulliMask(p); m != want {
		t.Fatalf("seed %d, %d probabilities: mask %#x, sequential draws %#x", seed, len(p), m, want)
	}
	if *got != *seq {
		t.Fatalf("seed %d, %d probabilities: generator state diverged from the sequential draws", seed, len(p))
	}
}

// At every length, over probabilities that mix the specials with values
// inside (0, 1) and either side of it.
func TestBernoulliMaskMatchesSequential(t *testing.T) {
	t.Parallel()
	r := New(29)
	p := make([]float64, 64)
	for n := 0; n <= 64; n++ {
		for rep := 0; rep < 20; rep++ {
			for k := range p[:n] {
				switch r.Intn(4) {
				case 0:
					p[k] = math.Float64frombits(maskSpecials[r.Intn(len(maskSpecials))])
				case 1:
					p[k] = 1.5*r.Float64() - 0.25
				default:
					p[k] = r.Float64()
				}
			}
			checkMask(t, uint64(n*100+rep), p[:n])
		}
	}
}

func TestBernoulliMaskAllocs(t *testing.T) {
	r := New(31)
	p := make([]float64, 64)
	for k := range p {
		p[k] = r.Float64()
	}
	if a := testing.AllocsPerRun(100, func() { r.BernoulliMask(p) }); a != 0 {
		t.Fatalf("BernoulliMask allocates %v times per call", a)
	}
}

func TestBernoulliMaskPanicsOver64(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 65 probabilities")
		}
	}()
	New(1).BernoulliMask(make([]float64, 65))
}

// FuzzBernoulliMask holds BernoulliMask to sequential Bernoulli calls. The
// raw bytes are read as float64 bit patterns, repeated to fill n%65
// probabilities.
func FuzzBernoulliMask(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, raw []byte) {
		p := make([]float64, int(n)%65)
		if len(raw) >= 8 {
			for k := range p {
				i := 8 * (k % (len(raw) / 8))
				p[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			}
		}
		checkMask(t, seed, p)
	})
}

// BenchmarkBernoulliMask draws 64 coins at a time through BernoulliMask
// and, for comparison, through 64 Bernoulli calls. The probabilities are
// |z|/E|z| for a standard normal z, as in a ternary-coded gradient row
// (about 4 in 10 at or above 1), cycled over 256 rows so the branch
// predictor cannot learn them.
func BenchmarkBernoulliMask(b *testing.B) {
	r := New(1)
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = make([]float64, 64)
		for k := range rows[i] {
			rows[i][k] = math.Abs(r.NormFloat64()) / math.Sqrt(2/math.Pi)
		}
	}
	b.Run("mask", func(b *testing.B) {
		var sink uint64
		i := 0
		for b.Loop() {
			sink ^= r.BernoulliMask(rows[i%len(rows)])
			i++
		}
		_ = sink
	})
	b.Run("sequential", func(b *testing.B) {
		var sink uint64
		i := 0
		for b.Loop() {
			for k, x := range rows[i%len(rows)] {
				if r.Bernoulli(x) {
					sink ^= 1 << k
				}
			}
			i++
		}
		_ = sink
	})
}
