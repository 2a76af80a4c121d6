package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The codec kernels are held to their Go loops with every bit compared, NaN
// payloads included: the maximum never is a NaN, and AddSigned and
// AddTernary keep the row's NaN on both paths (grad's
// TestOneBitDecodeKeepsRowNaN and TestTernaryDecodeKeepsRowNaN pin that rule
// themselves).

func assertExactBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] (of %d): got %#08x, want %#08x", what, i, len(got),
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// refSignMaskAbsMax is the codec's definition with float comparisons.
func refSignMaskAbsMax(x []float32, bits []byte) float32 {
	clear(bits)
	var m float32
	for k, v := range x {
		if v >= 0 {
			bits[k/8] |= 1 << uint(k%8)
		}
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// checkCodec runs SignMaskAbsMax over x and AddSigned of the resulting bits
// into y through the dispatching kernels, their Go loops and (for the mask)
// the float-comparison definition.
func checkCodec(t *testing.T, x, y []float32, pos, neg float32) {
	t.Helper()
	nb := (len(x) + 7) / 8
	got, want, ref := make([]byte, nb), make([]byte, nb), make([]byte, nb)
	for i := range got {
		got[i], want[i] = 0xA5, 0x5A // every byte must be overwritten
	}
	mGot := SignMaskAbsMax(x, got)
	mWant := signMaskAbsMaxGo(x, want, 0)
	mRef := refSignMaskAbsMax(x, ref)
	assertExactBits(t, "SignMaskAbsMax max", []float32{mGot, mWant}, []float32{mRef, mRef})
	if string(got) != string(ref) || string(want) != string(ref) {
		t.Fatalf("SignMaskAbsMax bits: kernel %x, Go loop %x, definition %x", got, want, ref)
	}

	y = y[:len(x)]
	sum, wantSum := clone(y), clone(y)
	AddSigned(got, pos, neg, sum)
	addSignedGo(got, pos, neg, wantSum)
	assertExactBits(t, "AddSigned", sum, wantSum)
}

func TestCodecKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		sc := randVec(rng, 1, rate)[0]
		checkCodec(t, randVec(rng, n, rate), randVec(rng, n, rate), sc, -sc)
	}
}

// checkTernary adds the codes under pos and neg into y through the
// dispatching kernel and its Go loop.
func checkTernary(t *testing.T, codes []byte, pos, neg float32, y []float32) {
	t.Helper()
	codes = codes[:(len(y)+3)/4]
	sum, want := clone(y), clone(y)
	AddTernary(codes, pos, neg, sum)
	addTernaryGo(codes, pos, neg, want)
	assertExactBits(t, "AddTernary", sum, want)
}

// checkAbsRatios runs AbsRatios over x through the dispatching kernel, its
// Go loop and the encode's definition (a float comparison for the sign),
// and requires the same ratio bits and sign bytes.
func checkAbsRatios(t *testing.T, x []float32, d float32) {
	t.Helper()
	nb := (len(x) + 7) / 8
	got, want := make([]float64, len(x)), make([]float64, len(x))
	sGot, sWant := make([]byte, nb), make([]byte, nb)
	for i := range sGot {
		sGot[i], sWant[i] = 0xA5, 0x5A // every byte must be overwritten
	}
	AbsRatios(x, d, got, sGot)
	absRatiosGo(x, d, want, sWant)
	for k, v := range x {
		ref := float64(math.Float32frombits(math.Float32bits(v)&^(1<<31))) / float64(d)
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) || math.Float64bits(want[k]) != math.Float64bits(ref) {
			t.Fatalf("AbsRatios[%d] of %#08x / %#08x: kernel %#016x, Go loop %#016x, definition %#016x", k,
				math.Float32bits(v), math.Float32bits(d), math.Float64bits(got[k]), math.Float64bits(want[k]), math.Float64bits(ref))
		}
		if bit := sGot[k/8] >> uint(k%8) & 1; bit != byte(math.Float32bits(v)>>31) {
			t.Fatalf("AbsRatios sign %d of %#08x: %d", k, math.Float32bits(v), bit)
		}
	}
	if string(sGot) != string(sWant) {
		t.Fatalf("AbsRatios signs: kernel %x, Go loop %x", sGot, sWant)
	}
}

func TestAbsRatiosMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		checkAbsRatios(t, randVec(rng, n, rate), randVec(rng, 1, rate)[0])
	}
}

// Every code, code 3 included, at every lane and in the tail, under scales
// that are NaN, infinite, zero of either sign or subnormal as often as plain.
func TestTernaryKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(81)
		rate := []float64{0, 0.05, 0.5}[trial%3]
		sc := randVec(rng, 2, rate)
		codes := make([]byte, (n+3)/4)
		rng.Read(codes)
		neg := -sc[0]
		if trial%4 == 3 {
			neg = sc[1] // an independent second addend
		}
		checkTernary(t, codes, sc[0], neg, randVec(rng, n, rate))
	}
}

// The kernel keeps eight maxima, one per lane, and combines them at the end;
// the Go loop keeps one. They agree whatever lane or tail a NaN, a zero or
// the maximum lands in.
func TestAbsMaxLaneOrderFree(t *testing.T) {
	nan, negNaN := float32(math.NaN()), math.Float32frombits(0xFFC00001)
	negZero := float32(math.Copysign(0, -1))
	check := func(what string, x []float32, want float32) {
		t.Helper()
		bits := make([]byte, (len(x)+7)/8)
		if got := SignMaskAbsMax(x, bits); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("%s: max %#08x, want %#08x", what, math.Float32bits(got), math.Float32bits(want))
		}
	}
	for _, n := range []int{8, 16, 19, 32} {
		for lane := 0; lane < n; lane++ {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%5) - 2
			}
			x[lane] = nan
			check("NaN in one lane", x, 2)
			x[lane] = negNaN
			check("negative NaN in one lane", x, 2)
			x[lane] = -3
			check("maximum in one lane", x, 3)
			x[lane] = 3
			check("positive maximum in one lane", x, 3)
		}
		zeros := make([]float32, n)
		for i := range zeros {
			if i%2 == 1 {
				zeros[i] = negZero
			}
		}
		check("only ±0", zeros, 0)
		for i := range zeros {
			zeros[i] = negZero
		}
		check("only −0", zeros, 0)
		nans := make([]float32, n)
		for i := range nans {
			nans[i] = []float32{nan, negNaN}[i%2]
		}
		check("only NaN", nans, 0)
		nans[n-1] = -math.MaxFloat32
		check("NaN then the maximum in the last value", nans, math.MaxFloat32)
	}
}

func BenchmarkSignMaskAbsMax(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(17))
	x, bits := randVec(rng, w, 0), make([]byte, w/8)
	benchKernel(b,
		func() { signMaskAbsMaxGo(x, bits, 0) },
		func() { SignMaskAbsMax(x, bits) })
}

func BenchmarkAddSigned(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(18))
	x, bits := randVec(rng, w, 0), make([]byte, w/8)
	rng.Read(bits)
	benchKernel(b,
		func() { addSignedGo(bits, 1e-3, -1e-3, x) },
		func() { AddSigned(bits, 1e-3, -1e-3, x) })
}

func BenchmarkAddTernary(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(20))
	x, codes := randVec(rng, w, 0), make([]byte, w/4)
	rng.Read(codes)
	benchKernel(b,
		func() { addTernaryGo(codes, 1e-3, -1e-3, x) },
		func() { AddTernary(codes, 1e-3, -1e-3, x) })
}

func BenchmarkAbsRatios(b *testing.B) {
	const w = 64
	rng := rand.New(rand.NewSource(22))
	x, p, sign := randVec(rng, w, 0), make([]float64, w), make([]byte, w/8)
	benchKernel(b,
		func() { absRatiosGo(x, 0.37, p, sign) },
		func() { AbsRatios(x, 0.37, p, sign) })
}
