package tensor

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The tests here hold the dispatching kernels to their Go loops bit for
// bit. On a build with the AVX2 kernels the blocks run in assembly, so the
// comparison is assembly against the Go oracle; on purego, -race and
// non-amd64 builds both sides are the Go loop and the tests pin only the
// dispatch arithmetic (block split and tail).

// sameBits reports whether a and b are the same float32, treating every NaN
// as one class: NaN payloads are not part of the contract (DESIGN.md §10).
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

func assertSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] (of %d): got %v (%#08x), want %v (%#08x)", what, i, len(got),
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// specials are the float32 values whose handling differs between careless
// vector code and the scalar loop: NaN, both infinities, negative zero,
// subnormals, the smallest normal, and values at the edge of overflow.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(3),
	math.Float32frombits(0x00800000), math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// randVec returns n values: mostly normal variates at mixed scales, with
// specials sprinkled in at rate specialRate.
func randVec(rng *rand.Rand, n int, specialRate float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Float64() < specialRate {
			v[i] = specials[rng.Intn(len(specials))]
			continue
		}
		v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	return v
}

func clone(x []float32) []float32 { return append([]float32(nil), x...) }

// adamStepAt returns the AdamStep opt.Adam uses at the given step with the
// standard hyper-parameters.
func adamStepAt(step int, lr float32) AdamStep {
	const beta1, beta2 = float32(0.9), float32(0.999)
	return AdamStep{
		Beta1: beta1, Beta2: beta2,
		Corr1: 1 - float32(math.Pow(float64(beta1), float64(step))),
		Corr2: 1 - float32(math.Pow(float64(beta2), float64(step))),
		LR:    lr, Eps: 1e-8,
	}
}

// checkElementwise runs Add, Scale, Axpy and AxpyMul against their Go
// loops on copies of y.
func checkElementwise(t *testing.T, alpha float32, x, a, y []float32) {
	t.Helper()
	got, want := clone(y), clone(y)
	Add(x, got)
	addGo(x, want)
	assertSameBits(t, "Add", got, want)

	got, want = clone(y), clone(y)
	Scale(alpha, got)
	scaleGo(alpha, want)
	assertSameBits(t, "Scale", got, want)

	got, want = clone(y), clone(y)
	Axpy(alpha, x, got)
	axpyGo(alpha, x, want)
	assertSameBits(t, "Axpy", got, want)

	got, want = clone(y), clone(y)
	AxpyMul(alpha, x, a, got)
	axpyMulGo(alpha, x, a, want)
	assertSameBits(t, "AxpyMul", got, want)
}

// checkOptimizerRows runs the Adam (at the given step, with opt.Adam's
// hyper-parameters) and SGD (opt.SGD's Axpy(-lr, grad, row)) row updates
// against their Go loops on copies.
func checkOptimizerRows(t *testing.T, lr float32, step int, row, g, m, v []float32) {
	t.Helper()
	c := adamStepAt(step, lr)
	gotRow, gotM, gotV := clone(row), clone(m), clone(v)
	wantRow, wantM, wantV := clone(row), clone(m), clone(v)
	AdamRow(gotRow, g, gotM, gotV, &c)
	adamRowGo(wantRow, g, wantM, wantV, &c)
	assertSameBits(t, "AdamRow m", gotM, wantM)
	assertSameBits(t, "AdamRow v", gotV, wantV)
	assertSameBits(t, "AdamRow row", gotRow, wantRow)

	gotRow, wantRow = clone(row), clone(row)
	Axpy(-lr, g, gotRow)
	axpyGo(-lr, g, wantRow)
	assertSameBits(t, "SGD row", gotRow, wantRow)
}

func TestElementwiseKernelsMatchGoLoops(t *testing.T) {
	t.Logf("AVX2 kernels active: %v", useAVX2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		alpha := randVec(rng, 1, rate)[0]
		checkElementwise(t, alpha, randVec(rng, n, rate), randVec(rng, n, rate), randVec(rng, n, rate))
	}
}

func TestOptimizerRowKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		row, g := randVec(rng, n, rate), randVec(rng, n, rate)
		m, v := randVec(rng, n, rate), randVec(rng, n, rate)
		for i := range v {
			v[i] = float32(math.Abs(float64(v[i])))
		}
		lr := float32(rng.ExpFloat64() * 1e-2)
		checkOptimizerRows(t, lr, 1+rng.Intn(20000), row, g, m, v)
	}
}

// complExCase runs ComplExGrad and its Go loop on the same inputs with the
// aliasing named by alias (bit 0: t is h; bit 1: gt is gh) and compares the
// three gradient rows.
func complExCase(t *testing.T, h, r, tt []float32, coef float32, gh, gr, gt []float32, alias uint8) {
	t.Helper()
	if alias&1 != 0 {
		tt = h
	}
	run := func(f func(h, r, t []float32, coef float32, gh, gr, gt []float32)) (a, b, c []float32) {
		a, b, c = clone(gh), clone(gr), clone(gt)
		if alias&2 != 0 {
			c = a
		}
		f(h, r, tt, coef, a, b, c)
		return a, b, c
	}
	gotH, gotR, gotT := run(ComplExGrad)
	wantH, wantR, wantT := run(func(h, r, t []float32, coef float32, gh, gr, gt []float32) {
		complExGradGo(h, r, t, coef, gh, gr, gt, 0)
	})
	assertSameBits(t, "ComplExGrad gh", gotH, wantH)
	assertSameBits(t, "ComplExGrad gr", gotR, wantR)
	assertSameBits(t, "ComplExGrad gt", gotT, wantT)
}

func TestComplExGradMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4000; trial++ {
		w := 2 * rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		vec := func() []float32 { return randVec(rng, w, rate) }
		coef := randVec(rng, 1, rate)[0]
		complExCase(t, vec(), vec(), vec(), coef, vec(), vec(), vec(), uint8(trial%4))
	}
}

// A self-loop triple hands ComplExGrad gh == gt: gh's real half is written
// once by the d/dRe(h) term and again by the d/dRe(t) term. The second
// update must see the first, exactly as the scalar loop does.
func TestComplExGradSelfLoopAlias(t *testing.T) {
	const d = 19 // two whole blocks and a tail
	rng := rand.New(rand.NewSource(4))
	h, r := randVec(rng, 2*d, 0), randVec(rng, 2*d, 0)
	g, gr := make([]float32, 2*d), make([]float32, 2*d)
	ComplExGrad(h, r, h, 0.75, g, gr, g)

	want := make([]float32, 2*d)
	for i := 0; i < d; i++ {
		hr, hi, rr, ri := h[i], h[d+i], r[i], r[d+i]
		want[i] += 0.75 * (rr*hr + ri*hi)
		want[d+i] += 0.75 * (rr*hi - ri*hr)
		want[i] += 0.75 * (hr*rr - hi*ri)
		want[d+i] += 0.75 * (hi*rr + hr*ri)
	}
	assertSameBits(t, "self-loop gh", g, want)
}

// transEWidths are the row widths the TransE block tests sweep: no k, k
// counts the kernel refuses (d % 4 != 0), one and several 4-wide k steps,
// the serving width 64 and 64 + 4. Only 64 and 68 are past transESplit, so
// only they reach the floor check.
var transEWidths = []int{0, 1, 3, 4, 8, 12, 64, 68}

// noFloor is the floor that keeps every TransE score exact.
var noFloor = float32(math.Inf(-1))

// checkTransEBlock scores the n-row slab against (h, r) as tails and against
// (r, t) as heads through the dispatching kernels and through their Go loops.
func checkTransEBlock(t *testing.T, h, r, tt, slab []float32, n int) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	TransEScoreTails(h, r, slab, got, noFloor)
	transETailGo(h, r, slab, want, noFloor, len(h))
	assertSameBits(t, "TransEScoreTails", got, want)
	TransEScoreHeads(r, tt, slab, got, noFloor)
	transEHeadGo(r, tt, slab, want, noFloor, len(tt))
	assertSameBits(t, "TransEScoreHeads", got, want)
}

// transEPartial is the score of candidate row c summed over k < upto only:
// float32(-Σ_{k<upto} float64(diff_k)²) with the tail-side or head-side
// difference, the value a kernel stores for a row it stops at upto.
func transEPartial(tail bool, a, b, c []float32, upto int) float32 {
	var s float64
	for k := range upto {
		var e float64
		if tail {
			e = float64(a[k] + b[k] - c[k]) // a = h, b = r
		} else {
			e = float64(c[k] + a[k] - b[k]) // a = r, b = t
		}
		s += e * e
	}
	return float32(-s)
}

// checkTransEFloor holds got, the output of a kernel given floor, to the
// floor contract against exact, the output at noFloor: each value is the
// exact score, or it and the exact score are both below floor (or the exact
// score is NaN, which no top k admits over a full heap) and it is the
// partial score at transESplit, the one place the kernels stop.
func checkTransEFloor(t *testing.T, what string, tail bool, a, b, slab []float32, floor float32, got, exact []float32) {
	t.Helper()
	d := len(a)
	for i := range got {
		if sameBits(got[i], exact[i]) {
			continue
		}
		part := transEPartial(tail, a, b, slab[i*d:(i+1)*d], min(transESplit, d))
		if !(got[i] < floor) || !(exact[i] < floor || exact[i] != exact[i]) || !sameBits(got[i], part) {
			t.Fatalf("%s[%d] (of %d, d=%d) at floor %v (%#08x): got %v (%#08x), exact %v (%#08x), partial at k=%d %v",
				what, i, len(got), d, floor, math.Float32bits(floor), got[i], math.Float32bits(got[i]),
				exact[i], math.Float32bits(exact[i]), transESplit, part)
		}
	}
}

// checkTransEBlockFloor scores the n-row slab as tails and as heads at floor,
// through the dispatching kernels and through the Go loops alone, and holds
// all four outputs to the floor contract against the Go loops at noFloor.
func checkTransEBlockFloor(t *testing.T, h, r, tt, slab []float32, n int, floor float32) {
	t.Helper()
	d := len(h)
	got, exact := make([]float32, n), make([]float32, n)
	transETailGo(h, r, slab, exact, noFloor, d)
	TransEScoreTails(h, r, slab, got, floor)
	checkTransEFloor(t, "TransEScoreTails", true, h, r, slab, floor, got, exact)
	transETailGo(h, r, slab, got, floor, transESplitAt(d, floor))
	checkTransEFloor(t, "transETailGo", true, h, r, slab, floor, got, exact)
	transEHeadGo(r, tt, slab, exact, noFloor, d)
	TransEScoreHeads(r, tt, slab, got, floor)
	checkTransEFloor(t, "TransEScoreHeads", false, r, tt, slab, floor, got, exact)
	transEHeadGo(r, tt, slab, got, floor, transESplitAt(d, floor))
	checkTransEFloor(t, "transEHeadGo", false, r, tt, slab, floor, got, exact)
}

func TestTransEBlockMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3000; trial++ {
		d := transEWidths[trial%len(transEWidths)]
		n := rng.Intn(71)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		checkTransEBlock(t, randVec(rng, d, rate), randVec(rng, d, rate), randVec(rng, d, rate),
			randVec(rng, n*d, rate), n)
	}
}

// Each term of a TransE row sum is a float32 difference squared, exact in
// float64, so a random row's sum rarely rounds where float32(-s) can see it
// and a kernel that reordered the adds would pass the random sweep. These
// rows cannot be reordered unseen: with squares 100, 100, 2^60 and 2^36,
// adding both 100s before 2^60 carries the sum one float64 ulp (256) past
// 2^60 + 2^36, a float32 tie, so float32(-s) rounds away from -2^60 instead
// of to it. Each row places the four at random positions among zeros.
func TestTransEBlockKeepsSumOrder(t *testing.T) {
	const d, n = 8, 64
	rng := rand.New(rand.NewSource(12))
	terms := []float32{10, 10, 1 << 30, 1 << 18} // squares 100, 100, 2^60, 2^36
	slab := make([]float32, n*d)
	for i := 0; i < n; i++ {
		for j, k := range rng.Perm(d)[:len(terms)] {
			slab[i*d+k] = terms[j]
		}
	}
	zero := make([]float32, d)
	checkTransEBlock(t, zero, zero, zero, slab, n)

	out := make([]float32, n)
	transETailGo(zero, zero, slab, out, noFloor, d)
	seen := map[float32]bool{}
	for _, v := range out {
		seen[v] = true
	}
	if !seen[-(1<<60)] || !seen[-(1<<60+1<<37)] {
		t.Fatalf("the rows no longer tell the sum orders apart: scores %v", seen)
	}
}

// transEFloorCase returns h, r, t and n rows of width d laid out as a
// trained table is around a query: row i is h + r plus unit normal noise
// times a scale drawn per row, 0.01 for about one row in 32 and from 1 to
// 100 for the rest, so the near rows set a top-k floor that most 16-row
// blocks' partial scores already fall below. specialRate then sprinkles
// specials into every vector, as randVec does.
func transEFloorCase(rng *rand.Rand, d, n int, specialRate float64) (h, r, tt, slab []float32) {
	h, r, tt = randVec(rng, d, 0), randVec(rng, d, 0), randVec(rng, d, 0)
	slab = make([]float32, n*d)
	for i := range n {
		scale := math.Pow(10, 2*rng.Float64())
		if rng.Intn(32) == 0 {
			scale = 0.01
		}
		for k := range d {
			slab[i*d+k] = h[k] + r[k] + float32(scale*rng.NormFloat64())
		}
	}
	for _, v := range [][]float32{h, r, tt, slab} {
		for i := range v {
			if rng.Float64() < specialRate {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	return h, r, tt, slab
}

// transEFloors returns the floors worth trying over a slab whose exact tail
// scores are exact: the two that turn the check off (-Inf, NaN), one above
// every score (+Inf), one below every number (-MaxFloat32), the best and
// the 10th best score (a top-1 and a top-10 floor), and a row's own partial
// score at transESplit, where below and at-or-above must part exactly.
func transEFloors(exact []float32, partial float32) []float32 {
	floors := []float32{noFloor, float32(math.NaN()), float32(math.Inf(1)), -math.MaxFloat32, partial}
	sorted := append([]float32(nil), exact...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	for _, k := range []int{0, 9} {
		if k < len(sorted) {
			floors = append(floors, sorted[k])
		}
	}
	return floors
}

func TestTransEBlockFloorKeepsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 600; trial++ {
		d := transEWidths[trial%len(transEWidths)]
		n := rng.Intn(71)
		rate := []float64{0, 0.002, 0.05}[trial%3]
		h, r, tt, slab := transEFloorCase(rng, d, n, rate)
		exact := make([]float32, n)
		transETailGo(h, r, slab, exact, noFloor, d)
		partial := float32(0)
		if n > 0 {
			j := rng.Intn(n)
			partial = transEPartial(true, h, r, slab[j*d:(j+1)*d], min(transESplit, d))
		}
		for _, floor := range transEFloors(exact, partial) {
			checkTransEBlockFloor(t, h, r, tt, slab, n, floor)
		}
	}
}

// A floor above every score must stop every row at transESplit, on the
// AVX2 kernel (64 rows: four whole blocks) and on the Go loops alike: an
// optimization that silently stopped pruning would keep every answer right
// and lose the whole saving, so this test fails it.
func TestTransEBlockFloorPrunes(t *testing.T) {
	const d, n = 64, 64
	rng := rand.New(rand.NewSource(46))
	h, r, tt, slab := transEFloorCase(rng, d, n, 0)
	exact, got := make([]float32, n), make([]float32, n)
	check := func(what string, tail bool, a, b []float32) {
		t.Helper()
		for i := range got {
			part := transEPartial(tail, a, b, slab[i*d:(i+1)*d], transESplit)
			if got[i] == exact[i] || !sameBits(got[i], part) {
				t.Fatalf("%s row %d at floor 0: got %v, want the partial score %v (exact %v)", what, i, got[i], part, exact[i])
			}
		}
	}
	split := transESplitAt(d, 0)
	transETailGo(h, r, slab, exact, noFloor, d)
	TransEScoreTails(h, r, slab, got, 0)
	check("TransEScoreTails", true, h, r)
	transETailGo(h, r, slab, got, 0, split)
	check("transETailGo", true, h, r)
	transEHeadGo(r, tt, slab, exact, noFloor, d)
	TransEScoreHeads(r, tt, slab, got, 0)
	check("TransEScoreHeads", false, r, tt)
	transEHeadGo(r, tt, slab, got, 0, split)
	check("transEHeadGo", false, r, tt)
}

// complExDims are the complex dimensions the ComplEx triple tests sweep: no
// k, dimensions the kernel refuses (d % 8 != 0), one and several 8-wide k
// steps, and the training width 32.
var complExDims = []int{0, 1, 4, 7, 8, 9, 16, 32, 40}

// complExTable lays out the triples of a ComplEx test over a table of rows of
// width 2d: triple j is (rows[3j], rows[3j+1], rows[3j+2]) unless alias says
// otherwise (bit 0: every triple shares the first triple's rows, the same row
// in many lanes; bit 1: t is h, a self-loop).
func complExTable(d int, vals []float32, n int, alias uint8) (h, r, tt [][]float32) {
	w := 2 * d
	h, r, tt = make([][]float32, n), make([][]float32, n), make([][]float32, n)
	for j := range n {
		row := func(i int) []float32 {
			if alias&1 != 0 {
				i %= 3
			}
			return vals[i*w : (i+1)*w]
		}
		h[j], r[j], tt[j] = row(3*j), row(3*j+1), row(3*j+2)
		if alias&2 != 0 {
			tt[j] = h[j]
		}
	}
	return h, r, tt
}

// checkComplExTriples scores n triples through the dispatching kernel and
// through its Go loop.
func checkComplExTriples(t *testing.T, d int, h, r, tt [][]float32, n int) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	ComplExScoreTriples(d, h, r, tt, got)
	complExTriplesGo(d, h, r, tt, want)
	assertSameBits(t, fmt.Sprintf("ComplExScoreTriples d=%d", d), got, want)
}

func TestComplExTriplesMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		d := complExDims[trial%len(complExDims)]
		n := rng.Intn(41)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		h, r, tt := complExTable(d, randVec(rng, 3*n*2*d, rate), n, uint8(rng.Intn(4)))
		checkComplExTriples(t, d, h, r, tt, n)
	}
}

// Go's ScoreRows adds each chain's products in k order from +0; 2^24, 1, 1
// sum to 2^24 + 2 when both 1s come first and to 2^24 when one follows
// 2^24 (it rounds back to even), so these rows pin the order of every
// chain. Triple j puts the three terms at random k among zeros in chain
// j % 4 (a, b, e or f) and zeroes the other chains' factors.
func TestComplExTriplesKeepsSumOrder(t *testing.T) {
	const d, n = 16, 512
	rng := rand.New(rand.NewSource(14))
	terms := []float32{1 << 24, 1, 1}
	vals := make([]float32, 3*n*2*d)
	h, r, tt := complExTable(d, vals, n, 0)
	for j := range n {
		// The chain's three factors: relation half, head half, tail half
		// (0 real, 1 imaginary), as in a, b, e, f = rr·hr·tr, rr·hi·ti,
		// ri·hr·ti, ri·hi·tr.
		halves := [4][3]int{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}[j%4]
		rel := r[j][halves[0]*d:][:d]
		for i, k := range rng.Perm(d)[:len(terms)] {
			rel[k] = terms[i]
		}
		for k := range d {
			h[j][halves[1]*d+k] = 1
			tt[j][halves[2]*d+k] = 1
		}
	}
	checkComplExTriples(t, d, h, r, tt, n)

	out := make([]float32, n)
	complExTriplesGo(d, h, r, tt, out)
	seen := map[float32]bool{}
	for _, v := range out {
		seen[float32(math.Abs(float64(v)))] = true
	}
	if !seen[1<<24] || !seen[1<<24+2] {
		t.Fatalf("the rows no longer tell the sum orders apart: scores %v", seen)
	}
}

// nrm2Widths are the row lengths the Nrm2Rows tests sweep: no k, lengths the
// kernel refuses (d % 4 != 0), one and several 4-wide k steps, the ComplEx
// gradient row of dimension 32 (64 floats) and 64 + 4.
var nrm2Widths = []int{0, 1, 3, 4, 8, 12, 64, 68}

// nrm2Table cuts n rows of width d from vals; alias puts the first row in
// every lane.
func nrm2Table(d int, vals []float32, n int, alias bool) [][]float32 {
	rows := make([][]float32, n)
	for j := range rows {
		i := j
		if alias {
			i = 0
		}
		rows[j] = vals[i*d : (i+1)*d]
	}
	return rows
}

// checkNrm2Rows computes the rows' norms through the dispatching kernel and
// through Nrm2.
func checkNrm2Rows(t *testing.T, rows [][]float32) {
	t.Helper()
	got, want := make([]float32, len(rows)), make([]float32, len(rows))
	Nrm2Rows(rows, got)
	for j, r := range rows {
		want[j] = Nrm2(r)
	}
	assertSameBits(t, "Nrm2Rows", got, want)
}

func TestNrm2RowsMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3000; trial++ {
		d := nrm2Widths[trial%len(nrm2Widths)]
		n := rng.Intn(41)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		checkNrm2Rows(t, nrm2Table(d, randVec(rng, n*d, rate), n, rng.Intn(4) == 0))
	}
}

// A row's squares are exact in float64, so a random row rarely shows a
// reordered sum. These rows cannot hide one. Squares 2^24, 1, 1 and 2^-24
// sum to y², y = 2^12 + 2^-12, the float32 tie between 2^12 and 2^12 +
// 2^-11, so the norm rounds to even, 2^12. Sixteen squares of 2^-30 each
// vanish when added to a sum near 2^24 (half its ulp is 2^-29), but
// added first they make 2^-26, which lifts the square root above the tie
// and the norm to 2^12 + 2^-11. Each row places the twenty values at
// random positions among zeros.
func TestNrm2RowsKeepsSumOrder(t *testing.T) {
	const d, n = 32, 64
	rng := rand.New(rand.NewSource(20))
	terms := []float32{1 << 12, 1, 1, 1.0 / (1 << 12)}
	for range 16 {
		terms = append(terms, 1.0/(1<<15))
	}
	vals := make([]float32, n*d)
	for i := 0; i < n; i++ {
		for j, k := range rng.Perm(d)[:len(terms)] {
			vals[i*d+k] = terms[j]
		}
	}
	rows := nrm2Table(d, vals, n, false)
	checkNrm2Rows(t, rows)

	seen := map[float32]bool{}
	for _, r := range rows {
		seen[Nrm2(r)] = true
	}
	if !seen[1<<12] || !seen[1<<12+1.0/(1<<11)] {
		t.Fatalf("the rows no longer tell the sum orders apart: norms %v", seen)
	}
}

// Adam's second moment is ((1-beta2)*g)*g, as Go parses it. This g makes
// the other association, (1-beta2)*(g*g), round differently, so a kernel
// that reassociated would fail here even without the random sweep.
func TestAdamRowKeepsParseOrder(t *testing.T) {
	c := adamStepAt(1, 0.01)
	var g float32
	for bits := uint32(0x3f800001); ; bits++ {
		g = math.Float32frombits(bits)
		oneMinus := 1 - c.Beta2
		if (oneMinus*g)*g != oneMinus*(g*g) {
			break
		}
	}
	grad := make([]float32, 16)
	for i := range grad {
		grad[i] = g
	}
	row, m, v := make([]float32, 16), make([]float32, 16), make([]float32, 16)
	AdamRow(row, grad, m, v, &c)
	oneMinus := 1 - c.Beta2
	want := c.Beta2*0 + (oneMinus*g)*g
	for i := range v {
		if !sameBits(v[i], want) {
			t.Fatalf("v[%d] = %#08x, want ((1-beta2)*g)*g = %#08x", i, math.Float32bits(v[i]), math.Float32bits(want))
		}
	}
}

func TestKernelsPanicOnLengthMismatch(t *testing.T) {
	c := adamStepAt(1, 0.1)
	a, b := make([]float32, 8), make([]float32, 9)
	for name, f := range map[string]func(){
		"AdamRow":          func() { AdamRow(a, a, a, b, &c) },
		"ComplExGrad":      func() { ComplExGrad(a, a, a, 1, a, a, b) },
		"ComplExGrad odd":  func() { ComplExGrad(b, b, b, 1, b, b, b) },
		"TransEScoreTails": func() { TransEScoreTails(a, b, a, b, noFloor) },
		"TransEScoreHeads": func() { TransEScoreHeads(a, a, make([]float32, 8*16-1), make([]float32, 16), noFloor) },
		"ComplExScoreTriples": func() {
			ComplExScoreTriples(4, [][]float32{a}, [][]float32{a}, nil, make([]float32, 1))
		},
		"ComplExScoreTriples short row": func() {
			rows := [][]float32{a, a, a, a, a, a, a, a}
			ComplExScoreTriples(8, rows, rows, rows, make([]float32, 8))
		},
		"Nrm2Rows":        func() { Nrm2Rows([][]float32{a, a}, make([]float32, 1)) },
		"Nrm2Rows ragged": func() { Nrm2Rows([][]float32{a, a, a, b}, make([]float32, 4)) },
		"SignMaskAbsMax":  func() { SignMaskAbsMax(b, make([]byte, 1)) },
		"AddSigned":       func() { AddSigned(make([]byte, 2), 1, -1, b[:7]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on mismatched lengths", name)
				}
			}()
			f()
		}()
	}
}

func TestKernelsAllocFree(t *testing.T) {
	const w = 64
	x, y, z := make([]float32, w), make([]float32, w), make([]float32, w)
	row, m, v := make([]float32, w), make([]float32, w), make([]float32, w)
	gh, gr, gt := make([]float32, w), make([]float32, w), make([]float32, w)
	slab, out := make([]float32, 35*w), make([]float32, 35)
	var triples [19][]float32
	bits := make([]byte, w/8)
	for j := range triples {
		triples[j] = slab[j*w : (j+1)*w]
	}
	for name, f := range map[string]func(){
		"Add":     func() { Add(x, y) },
		"Scale":   func() { Scale(0.5, y) },
		"Axpy":    func() { Axpy(0.5, x, y) },
		"AxpyMul": func() { AxpyMul(0.5, x, z, y) },
		"AdamRow": func() {
			c := AdamStep{Beta1: 0.9, Beta2: 0.999, Corr1: 0.1, Corr2: 0.001, LR: 0.01, Eps: 1e-8}
			AdamRow(row, x, m, v, &c)
		},
		"ComplExGrad":      func() { ComplExGrad(x, y, z, 0.5, gh, gr, gt) },
		"TransEScoreTails": func() { TransEScoreTails(x, y, slab, out, 0) },
		"TransEScoreHeads": func() { TransEScoreHeads(y, z, slab, out, 0) },
		"ComplExScoreTriples": func() {
			ComplExScoreTriples(w/2, triples[:], triples[:], triples[:], out[:len(triples)])
		},
		"Nrm2Rows":       func() { Nrm2Rows(triples[:], out[:len(triples)]) },
		"SignMaskAbsMax": func() { SignMaskAbsMax(x, bits) },
		"AddSigned":      func() { AddSigned(bits, 0.5, -0.5, y) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call", name, allocs)
		}
	}
}

// amd64Files lists the package's files named *_amd64 plus ext, so a kernel
// added in a new file is checked like the existing ones.
func amd64Files(t *testing.T, ext string) []string {
	t.Helper()
	names, err := filepath.Glob("*_amd64" + ext)
	if err != nil || len(names) == 0 {
		t.Fatalf("no *_amd64%s files found (%v)", ext, err)
	}
	return names
}

// asmLine is one statement of an assembly file; a line may hold several,
// separated by semicolons.
type asmLine struct {
	pos  string // file:line
	text string
}

// asmStatements splits an assembly file into statements, comments and
// labels dropped. A #define's body is split like code, line by line, so a
// macro's instructions are checked where it is defined; the macro names,
// whose invocations are not instructions, are returned too.
func asmStatements(t *testing.T, name string) (stmts []asmLine, macros map[string]bool) {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	macros = map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSuffix(strings.TrimSpace(text), "\\")
		if rest, ok := strings.CutPrefix(text, "#define"); ok {
			// Record the name; what follows it (and its parameter list) on
			// this line is already body.
			rest = strings.TrimSpace(rest)
			end := strings.IndexAny(rest, "( \t")
			if end < 0 {
				end = len(rest)
			}
			macros[rest[:end]] = true
			text = rest[end:]
			if strings.HasPrefix(text, "(") {
				text = text[strings.Index(text, ")")+1:]
			}
		} else if strings.HasPrefix(text, "#") {
			continue
		}
		for _, stmt := range strings.Split(text, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt != "" && !strings.HasSuffix(stmt, ":") {
				stmts = append(stmts, asmLine{fmt.Sprintf("%s:%d", name, line), stmt})
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return stmts, macros
}

// The exactness rules of the assembly, checked on the text of every
// *_amd64.s file: arithmetic only through correctly rounded operations, each
// the packed form of the scalar instruction the Go loop compiles to, and no
// FMA, horizontal or reciprocal-estimate instruction anywhere. No legacy SSE
// instruction may touch an X register either: between VEX code that leaves
// the upper YMM halves dirty, each one pays a state-transition penalty that
// can exceed the kernel's whole saving.
func TestAssemblyUsesOnlyExactArithmetic(t *testing.T) {
	allowed := map[string]string{
		"VMULPS":       "MULSS per lane",
		"VADDPS":       "ADDSS per lane",
		"VSUBPS":       "SUBSS per lane",
		"VDIVPS":       "DIVSS per lane",
		"VSQRTPS":      "SQRTSS per lane, which is float32(math.Sqrt(float64(x)))",
		"VSQRTPD":      "SQRTSD per lane, which is math.Sqrt",
		"VCVTPS2PD":    "CVTSS2SD per lane: float32 to float64 is exact",
		"VCVTPD2PSY":   "CVTSD2SS per lane: the single rounding of float32(s)",
		"VMULPD":       "MULSD per lane",
		"VADDPD":       "ADDSD per lane",
		"VUNPCKLPD":    "moves whole float64 lanes, computes nothing",
		"VUNPCKHPD":    "moves whole float64 lanes, computes nothing",
		"VUNPCKLPS":    "lane move only: interleaves float32 lanes, computes nothing",
		"VUNPCKHPS":    "lane move only: interleaves float32 lanes, computes nothing",
		"VSHUFPS":      "lane move only: selects float32 lanes, computes nothing",
		"VPERM2F128":   "moves whole 128-bit halves, computes nothing",
		"VXORPD":       "sign flip of Go's unary minus, or a zeroed accumulator",
		"VCMPPS":       "a >= b per lane (predicate 0x1D, GE_OQ, checked below): Go's v >= 0, or the TransE floor check's below >= x, false for NaN; computes no value",
		"VMOVMSKPS":    "packs the comparison results of the lanes into one integer, computes no value",
		"VANDPS":       "clears the sign bit, the bit pattern of |x| for every non-NaN x, or ANDs comparison masks",
		"VMAXPS":       "Go's if a > m { m = a } per lane, with a the first source: equality and NaN keep m",
		"VMOVSS":       "store of one float32 result",
		"VPBROADCASTB": "load of one payload byte into every byte lane",
		"VPAND":        "selects one payload bit per lane, computes no value",
		"VPCMPEQD":     "turns the selected bit into a lane mask, computes no value",
		"VBLENDVPS":    "picks one of two addends per lane by the mask, computes no value",
		"MOVB":         "store of one payload byte",
		"VMOVUPS":      "load or store",
		"VBROADCASTSS": "load of one scalar into every lane",
		"VZEROUPPER":   "clears the upper YMM halves before returning to Go",
		"PREFETCHT0":   "cache hint: loads no value, so it cannot change one",
		"MOVQ":         "integer housekeeping", "MOVL": "integer housekeeping",
		"XORQ": "integer housekeeping", "ADDQ": "integer housekeeping",
		"CMPQ": "integer housekeeping", "SHLQ": "integer housekeeping",
		"SHRQ": "integer housekeeping", "LEAQ": "integer housekeeping",
		"JB":    "the loops' and the floor check's only branch form",
		"RET":   "return",
		"CPUID": "feature detection", "XGETBV": "feature detection",
		"TEXT": "directive", "DATA": "directive", "GLOBL": "directive",
	}
	xreg := regexp.MustCompile(`\bX([0-9]|1[0-5])\b`)
	seen := map[string]bool{}
	for _, name := range amd64Files(t, ".s") {
		stmts, macros := asmStatements(t, name)
		for _, s := range stmts {
			op := strings.Fields(s.text)[0]
			if i := strings.Index(op, "("); i >= 0 && macros[op[:i]] || macros[op] {
				continue
			}
			if allowed[op] == "" {
				t.Errorf("%s: instruction %s is outside the exact set", s.pos, op)
			}
			if op == "VCMPPS" && !strings.HasPrefix(strings.Fields(s.text)[1], "$0x1D,") {
				t.Errorf("%s: VCMPPS with a predicate other than $0x1D (GE_OQ)", s.pos)
			}
			if !strings.HasPrefix(op, "V") && xreg.MatchString(s.text) {
				t.Errorf("%s: legacy SSE %s on an X register; use the VEX form", s.pos, op)
			}
			seen[op] = true
		}
	}
	for _, op := range []string{"VMULPS", "VADDPS", "VSUBPS", "VDIVPS", "VSQRTPS", "VCVTPS2PD", "VMULPD",
		"VADDPD", "VPERM2F128", "VCVTPD2PSY", "VZEROUPPER", "VUNPCKLPS", "VUNPCKHPS", "VSHUFPS", "VSQRTPD",
		"VCMPPS", "VMOVMSKPS", "VANDPS", "VMAXPS", "VMOVSS", "VPBROADCASTB", "VPAND", "VPCMPEQD", "VBLENDVPS",
		"MOVB"} {
		if !seen[op] {
			t.Errorf("no assembly file uses %s any more; is the scan reading the right files?", op)
		}
	}
}

// Every assembly declaration must carry //go:noescape: without it the
// AdamStep that ApplyRow builds on its stack would escape to the heap on
// every row.
func TestAssemblyDeclarationsAreNoEscape(t *testing.T) {
	fset := token.NewFileSet()
	bodyless := 0
	for _, name := range amd64Files(t, ".go") {
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body != nil {
				continue
			}
			bodyless++
			noescape := false
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					noescape = noescape || c.Text == "//go:noescape"
				}
			}
			if !noescape {
				t.Errorf("%s: assembly declaration %s lacks //go:noescape", fset.Position(fd.Pos()), fd.Name.Name)
			}
		}
	}
	if bodyless < 14 {
		t.Errorf("found %d bodyless declarations in *_amd64.go, want at least 14", bodyless)
	}
}

// benchKernel runs f as sub-benchmarks "go" (the portable loop) and "avx2"
// (the dispatching kernel; skipped on builds without the assembly). Each
// report function runs after its sub-benchmark's loop, to add metrics.
func benchKernel(b *testing.B, generic, dispatch func(), report ...func(*testing.B)) {
	b.Run("go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			generic()
		}
		for _, r := range report {
			r(b)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("AVX2 kernels not in this build or not supported by this CPU")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dispatch()
		}
		for _, r := range report {
			r(b)
		}
	})
}

func BenchmarkAdamApplyRow(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(5))
	row, g := randVec(rng, w, 0), randVec(rng, w, 0)
	m, v := make([]float32, w), make([]float32, w)
	c := adamStepAt(100, 1e-3)
	benchKernel(b,
		func() { adamRowGo(row, g, m, v, &c) },
		func() { AdamRow(row, g, m, v, &c) })
}

func BenchmarkComplExGradRows(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(6))
	h, r, tt := randVec(rng, w, 0), randVec(rng, w, 0), randVec(rng, w, 0)
	gh, gr, gt := make([]float32, w), make([]float32, w), make([]float32, w)
	benchKernel(b,
		func() { complExGradGo(h, r, tt, 1e-3, gh, gr, gt, 0) },
		func() { ComplExGrad(h, r, tt, 1e-3, gh, gr, gt) })
}

func BenchmarkAdd64(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(8))
	x, y := randVec(rng, w, 0), make([]float32, w)
	benchKernel(b, func() { addGo(x, y) }, func() { Add(x, y) })
}

// BenchmarkScoreBlock times the TransE 1-vs-N kernels at the exact predict
// sweep's serving shape: one (fixed, relation) pair against 50 000 rows of
// width 64, a 12.8 MB slab that streams from L3 or memory rather than
// sitting in L1/L2 (model's BenchmarkScoreBlock times a 1000-row table).
// The floors are the extremes of the check: none (every row exact), one
// above every score (every block stops at transESplit) and one below every
// score (every block is checked and finished).
func BenchmarkScoreBlock(b *testing.B) {
	const rows, d = 50000, 64
	rng := rand.New(rand.NewSource(11))
	fixed, rel, slab := randVec(rng, d, 0), randVec(rng, d, 0), randVec(rng, rows*d, 0)
	out := make([]float32, rows)
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	for _, f := range []struct {
		name  string
		floor float32
	}{{"exact", noFloor}, {"all-pruned", 0}, {"none-pruned", -math.MaxFloat32}} {
		split := transESplitAt(d, f.floor)
		b.Run("transe-64/50k/tail/"+f.name, func(b *testing.B) {
			benchKernel(b,
				func() { transETailGo(fixed, rel, slab, out, f.floor, split) },
				func() { TransEScoreTails(fixed, rel, slab, out, f.floor) }, perRow)
		})
		b.Run("transe-64/50k/head/"+f.name, func(b *testing.B) {
			benchKernel(b,
				func() { transEHeadGo(rel, fixed, slab, out, f.floor, split) },
				func() { TransEScoreHeads(rel, fixed, slab, out, f.floor) }, perRow)
		})
	}
}

// BenchmarkComplExTriples times gathered ComplEx scoring at the training
// shape: d = 32, 1024 triples whose rows are drawn at random from a
// 12 000-row table (3 MB), so most rows come from L2 or L3. dot3 is
// ComplEx.ScoreRows' expression, four Dot3 calls, per triple: the cost the
// kernel replaces.
func BenchmarkComplExTriples(b *testing.B) {
	const rows, d, n = 12000, 32, 1024
	rng := rand.New(rand.NewSource(15))
	table := randVec(rng, rows*2*d, 0)
	h, r, tt := make([][]float32, n), make([][]float32, n), make([][]float32, n)
	for j := range n {
		pick := func() []float32 { i := rng.Intn(rows); return table[i*2*d : (i+1)*2*d] }
		h[j], r[j], tt[j] = pick(), pick(), pick()
	}
	out := make([]float32, n)
	perTriple := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/triple")
	}
	b.Run("dot3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range out {
				out[j] = Dot3(r[j][:d], h[j][:d], tt[j][:d]) + Dot3(r[j][:d], h[j][d:], tt[j][d:]) +
					Dot3(r[j][d:], h[j][:d], tt[j][d:]) - Dot3(r[j][d:], h[j][d:], tt[j][:d])
			}
		}
		perTriple(b)
	})
	benchKernel(b,
		func() { complExTriplesGo(d, h, r, tt, out) },
		func() { ComplExScoreTriples(d, h, r, tt, out) }, perTriple)
}

// BenchmarkNrm2Rows times the gradient row norms at the training shape: one
// NormStats chunk of 64 rows of 64 floats (ComplEx at dimension 32), drawn
// at random from a 4096-row table.
func BenchmarkNrm2Rows(b *testing.B) {
	const rows, d, n = 4096, 64, 64
	rng := rand.New(rand.NewSource(21))
	table := randVec(rng, rows*d, 0)
	gathered := make([][]float32, n)
	for j := range gathered {
		i := rng.Intn(rows)
		gathered[j] = table[i*d : (i+1)*d]
	}
	out := make([]float32, n)
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	}
	benchKernel(b,
		func() {
			for j, r := range gathered {
				out[j] = Nrm2(r)
			}
		},
		func() { Nrm2Rows(gathered, out) }, perRow)
}
