package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"kgedist/internal/xrand"
)

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestDot3(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	c := []float32{5, 6}
	if got := Dot3(a, b, c); got != 1*3*5+2*4*6 {
		t.Fatalf("Dot3 = %v", got)
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpyMul(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	y := []float32{0, 0}
	AxpyMul(2, a, b, y)
	if y[0] != 6 || y[1] != 16 {
		t.Fatalf("AxpyMul = %v", y)
	}
}

func TestScaleAddCopyZero(t *testing.T) {
	x := []float32{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scale = %v", x)
	}
	y := []float32{1, 1}
	Add(x, y)
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("Add = %v", y)
	}
	dst := make([]float32, 2)
	Copy(dst, y)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("Copy = %v", dst)
	}
	Zero(dst)
	if !IsZero(dst) {
		t.Fatalf("Zero left %v", dst)
	}
}

func TestNrm2(t *testing.T) {
	x := []float32{3, 4}
	if got := Nrm2(x); got != 5 {
		t.Fatalf("Nrm2 = %v", got)
	}
	if Nrm2(nil) != 0 {
		t.Fatal("Nrm2(nil) != 0")
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero([]float32{0, 0, 0}) {
		t.Fatal("IsZero false for zeros")
	}
	if IsZero([]float32{0, 1e-30, 0}) {
		t.Fatal("IsZero true for non-zeros")
	}
	if !IsZero(nil) {
		t.Fatal("IsZero(nil) false")
	}
}

func TestMatrixRows(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad matrix shape %+v", m)
	}
	r := m.Row(1)
	r[0] = 42
	if m.Data[4] != 42 {
		t.Fatal("Row is not a view into backing data")
	}
	if m.Bytes() != 48 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
}

func TestMatrixRowPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, idx := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Row(%d) did not panic", idx)
				}
			}()
			m.Row(idx)
		}()
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Data[3] = 5
	c := m.Clone()
	c.Data[3] = 7
	if m.Data[3] != 5 {
		t.Fatal("Clone shares backing data")
	}
}

func TestMatrixNonZeroRows(t *testing.T) {
	m := NewMatrix(4, 3)
	m.Row(1)[2] = 1
	m.Row(3)[0] = -1
	if got := m.NonZeroRows(); got != 2 {
		t.Fatalf("NonZeroRows = %d", got)
	}
	Zero(m.Data)
	if got := m.NonZeroRows(); got != 0 {
		t.Fatalf("NonZeroRows after Zero = %d", got)
	}
}

func TestRandomizeNormal(t *testing.T) {
	r := xrand.New(3)
	m := NewMatrix(100, 50)
	m.RandomizeNormal(0.1, r.NormFloat64)
	var sum, sumSq float64
	for _, v := range m.Data {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	n := float64(len(m.Data))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("mean %v not near 0", mean)
	}
	if math.Abs(std-0.1) > 0.01 {
		t.Fatalf("std %v not near 0.1", std)
	}
}

// Property: Dot is symmetric.
func TestQuickDotProperties(t *testing.T) {
	f := func(raw []float32) bool {
		// Keep values finite and modest to avoid float blowup.
		x := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 1
			}
			x[i] = float32(math.Mod(float64(v), 100))
		}
		y := make([]float32, len(x))
		for i := range y {
			y[i] = x[len(x)-1-i]
		}
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Axpy with alpha=0 leaves y unchanged; with x=0 likewise.
func TestQuickAxpyIdentity(t *testing.T) {
	f := func(raw []float32) bool {
		y := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			y[i] = v
		}
		x := make([]float32, len(y))
		before := make([]float32, len(y))
		copy(before, y)
		Axpy(0, y, y)      // alpha 0: no-op? y += 0*y
		Axpy(1, x, y)      // zero x: no-op
		for i := range y { // compare
			if y[i] != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDot128(b *testing.B) {
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(i)
		y[i] = float32(i) * 0.5
	}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = Dot(x, y)
	}
	_ = sink
}

func BenchmarkAxpy128(b *testing.B) {
	x := make([]float32, 128)
	y := make([]float32, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.01, x, y)
	}
}
