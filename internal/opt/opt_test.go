package opt

import (
	"math"
	"testing"
	"testing/quick"

	"kgedist/internal/xrand"
)

func TestNewByName(t *testing.T) {
	for _, name := range []string{"sgd", "adam"} {
		o := NewByName(name, 4, 8)
		if o.Name() != name || !IsKnownOptimizer(name) {
			t.Fatalf("NewByName(%q).Name() = %q, known %v", name, o.Name(), IsKnownOptimizer(name))
		}
	}
	for _, name := range []string{"adagrad", "nope", ""} {
		if IsKnownOptimizer(name) {
			t.Fatalf("IsKnownOptimizer(%q) = true", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewByName("nope", 1, 1)
}

func TestSGDApplyRow(t *testing.T) {
	s := NewSGD()
	s.BeginStep()
	row := []float32{1, 2}
	s.ApplyRow(0, row, []float32{10, -10}, 0.1)
	if row[0] != 0 || row[1] != 3 {
		t.Fatalf("row = %v", row)
	}
}

func TestAdamRequiresBeginStep(t *testing.T) {
	a := NewAdam(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.ApplyRow(0, []float32{0}, []float32{1}, 0.1)
}

// referenceAdam is an independent scalar implementation for cross-checking.
type referenceAdam struct {
	m, v float64
	step int
	b1   float64
	b2   float64
	eps  float64
}

func (r *referenceAdam) apply(x, g, lr float64) float64 {
	r.step++
	r.m = r.b1*r.m + (1-r.b1)*g
	r.v = r.b2*r.v + (1-r.b2)*g*g
	mh := r.m / (1 - math.Pow(r.b1, float64(r.step)))
	vh := r.v / (1 - math.Pow(r.b2, float64(r.step)))
	return x - lr*mh/(math.Sqrt(vh)+r.eps)
}

func TestAdamMatchesReference(t *testing.T) {
	a := NewAdam(1, 1)
	ref := &referenceAdam{b1: 0.9, b2: 0.999, eps: 1e-8}
	rng := xrand.New(33)
	x := []float32{1.0}
	xRef := 1.0
	for i := 0; i < 200; i++ {
		g := rng.NormFloat64()
		a.BeginStep()
		a.ApplyRow(0, x, []float32{float32(g)}, 0.01)
		xRef = ref.apply(xRef, g, 0.01)
		if math.Abs(float64(x[0])-xRef) > 1e-4 {
			t.Fatalf("step %d: %v vs reference %v", i, x[0], xRef)
		}
	}
}

// The row updates run through tensor's kernels; this pins them to the
// scalar loops the optimizers were written as, bit for bit, over 300 steps
// at widths with and without an 8-lane tail. Each row is touched every
// third step, so Adam's bias correction runs ahead of the row's moments as
// it does for sparse rows in training.
func TestApplyRowBitEqualScalarLoops(t *testing.T) {
	const rows = 3
	for _, width := range []int{1, 7, 8, 17, 64} {
		adam := NewAdam(rows, width)
		m, v := make([]float32, rows*width), make([]float32, rows*width)
		adamRow, wantAdam := make([]float32, width), make([]float32, width)
		sgdRow, wantSGD := make([]float32, width), make([]float32, width)
		grad := make([]float32, width)
		rng := xrand.New(uint64(width))
		beta1, beta2, eps := float32(0.9), float32(0.999), float32(1e-8)
		for step := 1; step <= 300; step++ {
			for i := range grad {
				grad[i] = float32(rng.NormFloat64() * 0.1)
			}
			lr := float32(0.01)
			id := int32(step % rows)
			adam.BeginStep()
			adam.ApplyRow(id, adamRow, grad, lr)
			NewSGD().ApplyRow(id, sgdRow, grad, lr)

			corr1 := 1 - float32(math.Pow(float64(beta1), float64(step)))
			corr2 := 1 - float32(math.Pow(float64(beta2), float64(step)))
			mr, vr := m[int(id)*width:][:width], v[int(id)*width:][:width]
			for i, g := range grad {
				mr[i] = beta1*mr[i] + (1-beta1)*g
				vr[i] = beta2*vr[i] + (1-beta2)*g*g
				mHat := mr[i] / corr1
				vHat := vr[i] / corr2
				wantAdam[i] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + eps)

				wantSGD[i] += -lr * g
			}
			for i := range grad {
				if math.Float32bits(adamRow[i]) != math.Float32bits(wantAdam[i]) ||
					math.Float32bits(sgdRow[i]) != math.Float32bits(wantSGD[i]) {
					t.Fatalf("width %d step %d [%d]: adam %v/%v sgd %v/%v", width, step, i,
						adamRow[i], wantAdam[i], sgdRow[i], wantSGD[i])
				}
			}
		}
	}
}

func TestApplyRowAllocFree(t *testing.T) {
	const width = 64
	row, grad := make([]float32, width), make([]float32, width)
	for _, o := range []Optimizer{NewSGD(), NewAdam(1, width)} {
		o.BeginStep()
		if allocs := testing.AllocsPerRun(100, func() { o.ApplyRow(0, row, grad, 0.01) }); allocs != 0 {
			t.Errorf("%s.ApplyRow allocates %.1f times per call", o.Name(), allocs)
		}
	}
}

func TestAdamUntouchedRowsUnchanged(t *testing.T) {
	a := NewAdam(3, 2)
	rows := [][]float32{{1, 1}, {2, 2}, {3, 3}}
	a.BeginStep()
	a.ApplyRow(1, rows[1], []float32{1, 1}, 0.1)
	if rows[0][0] != 1 || rows[2][0] != 3 {
		t.Fatal("untouched rows changed")
	}
	if rows[1][0] == 2 {
		t.Fatal("touched row unchanged")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)^2 with Adam; must approach 3.
	a := NewAdam(1, 1)
	x := []float32{-5}
	for i := 0; i < 3000; i++ {
		g := 2 * (x[0] - 3)
		a.BeginStep()
		a.ApplyRow(0, x, []float32{g}, 0.05)
	}
	if math.Abs(float64(x[0])-3) > 0.05 {
		t.Fatalf("Adam did not converge: x = %v", x[0])
	}
	if a.Step() != 3000 {
		t.Fatalf("Step = %d", a.Step())
	}
}

func TestScaledLR(t *testing.T) {
	if got := ScaledLR(0.001, 1, 4); got != 0.001 {
		t.Fatalf("1 node: %v", got)
	}
	if got := ScaledLR(0.001, 2, 4); got != 0.002 {
		t.Fatalf("2 nodes: %v", got)
	}
	if got := ScaledLR(0.001, 4, 4); got != 0.004 {
		t.Fatalf("4 nodes: %v", got)
	}
	// The paper's cap: beyond 4 nodes the factor stays 4.
	if got := ScaledLR(0.001, 16, 4); got != 0.004 {
		t.Fatalf("16 nodes: %v", got)
	}
}

func TestPlateauReducesAfterTolerance(t *testing.T) {
	p := NewPlateau(0.1, 0.1, 1e-5, 3)
	if !p.Observe(0.5) {
		t.Fatal("first observation must improve")
	}
	for i := 0; i < 2; i++ {
		if p.Observe(0.4) {
			t.Fatal("non-improving observation reported as improvement")
		}
		if p.LR() != 0.1 {
			t.Fatalf("LR dropped early: %v", p.LR())
		}
	}
	p.Observe(0.4) // third bad epoch hits tolerance
	if math.Abs(p.LR()-0.01) > 1e-12 {
		t.Fatalf("LR after plateau = %v, want 0.01", p.LR())
	}
}

func TestPlateauResetOnImprovement(t *testing.T) {
	p := NewPlateau(0.1, 0.1, 1e-5, 2)
	p.Observe(0.5)
	p.Observe(0.4)
	p.Observe(0.6) // improvement resets the bad counter
	p.Observe(0.5)
	if p.LR() != 0.1 {
		t.Fatalf("LR = %v, want unchanged 0.1", p.LR())
	}
	best, ok := p.Best()
	if !ok || best != 0.6 {
		t.Fatalf("Best = %v %v", best, ok)
	}
}

func TestPlateauFloor(t *testing.T) {
	p := NewPlateau(0.1, 0.1, 0.01, 1)
	p.Observe(1.0)
	for i := 0; i < 10; i++ {
		p.Observe(0.5)
	}
	if p.LR() != 0.01 {
		t.Fatalf("LR = %v, want floor 0.01", p.LR())
	}
}

func TestPlateauBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPlateau(0, 0.1, 0, 1) },
		func() { NewPlateau(0.1, 1.5, 0, 1) },
		func() { NewPlateau(0.1, 0.1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkAdamApplyRow128(b *testing.B) {
	a := NewAdam(1, 128)
	row := make([]float32, 128)
	grad := make([]float32, 128)
	for i := range grad {
		grad[i] = 0.01
	}
	a.BeginStep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ApplyRow(0, row, grad, 0.001)
	}
}

// Property: the plateau schedule never raises the learning rate, never
// drops below the floor, and improvements never trigger a cut.
func TestQuickPlateauMonotone(t *testing.T) {
	f := func(seed uint64, obs []uint8) bool {
		p := NewPlateau(0.1, 0.5, 0.001, 2)
		prev := p.LR()
		rng := xrand.New(seed)
		for _, o := range obs {
			improved := p.Observe(float64(o) + rng.Float64())
			lr := p.LR()
			if lr > prev || lr < 0.001-1e-15 {
				return false
			}
			if improved && lr != prev {
				return false
			}
			prev = lr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScaledLR is monotone in nodes and flat at the cap.
func TestQuickScaledLRMonotone(t *testing.T) {
	f := func(nRaw, capRaw uint8) bool {
		n := int(nRaw%32) + 1
		cp := int(capRaw%8) + 1
		a := ScaledLR(0.001, n, cp)
		b := ScaledLR(0.001, n+1, cp)
		if b < a {
			return false
		}
		if n >= cp && a != 0.001*float64(cp) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
