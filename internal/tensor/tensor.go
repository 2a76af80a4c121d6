// Package tensor provides the float32 vector and row-matrix kernels that the
// KGE models and gradient pipeline are built on.
//
// The paper's workloads operate on embedding matrices whose rows are small
// (dimension up to a few hundred) dense vectors; all heavy math reduces to
// BLAS-1 style kernels over rows. Everything here is allocation-free unless
// documented otherwise, so hot loops in training stay off the garbage
// collector.
//
// Ownership and concurrency: the free-function kernels (Dot, Axpy, ...)
// only read their inputs and write their named outputs; they never retain a
// slice past the call. None of them are synchronized: they are for
// exclusively-owned rows and scratch.
//
// The element-wise kernels (Add, Scale, Axpy, AxpyMul and the row updates in
// rows.go) run whole 8-lane blocks through AVX2 assembly on amd64 CPUs that
// support it and the remainder through the Go loop, which is also the whole
// computation on every other build (the purego tag, -race, other
// architectures). Both paths produce the same bits; DESIGN.md "SIMD kernels"
// gives the rules that make that hold.
package tensor

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; it panics otherwise (mirroring the cost of a silent mismatch).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Dot3 returns sum_i a[i]*b[i]*c[i], the triple product at the heart of the
// ComplEx and DistMult scoring functions.
func Dot3(a, b, c []float32) float32 {
	if len(a) != len(b) || len(b) != len(c) {
		panic("tensor: Dot3 length mismatch")
	}
	var s float32
	for i, av := range a {
		s += av * b[i] * c[i]
	}
	return s
}

// Axpy computes y += alpha * x in place.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	n := 0
	if useAVX2 && len(y) >= lanes {
		n = len(y) &^ (lanes - 1)
		axpyAVX2(alpha, x[:n], y[:n])
	}
	axpyGo(alpha, x[n:], y[n:])
}

func axpyGo(alpha float32, x, y []float32) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// AxpyMul computes y[i] += alpha * a[i] * b[i], fusing the element-wise
// product used by KGE gradient rules.
func AxpyMul(alpha float32, a, b, y []float32) {
	if len(a) != len(b) || len(b) != len(y) {
		panic("tensor: AxpyMul length mismatch")
	}
	n := 0
	if useAVX2 && len(y) >= lanes {
		n = len(y) &^ (lanes - 1)
		axpyMulAVX2(alpha, a[:n], b[:n], y[:n])
	}
	axpyMulGo(alpha, a[n:], b[n:], y[n:])
}

func axpyMulGo(alpha float32, a, b, y []float32) {
	for i := range y {
		y[i] += alpha * a[i] * b[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	n := 0
	if useAVX2 && len(x) >= lanes {
		n = len(x) &^ (lanes - 1)
		scaleAVX2(alpha, x[:n])
	}
	scaleGo(alpha, x[n:])
}

func scaleGo(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y += x in place.
func Add(x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Add length mismatch")
	}
	n := 0
	if useAVX2 && len(y) >= lanes {
		n = len(y) &^ (lanes - 1)
		addAVX2(x[:n], y[:n])
	}
	addGo(x[n:], y[n:])
}

func addGo(x, y []float32) {
	for i, xv := range x {
		y[i] += xv
	}
}

// Copy copies src into dst; lengths must match.
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: Copy length mismatch")
	}
	copy(dst, src)
}

// Zero sets x to all zeros.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Nrm2 returns the Euclidean norm of x.
func Nrm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Nrm2Rows writes out[j] = Nrm2(rows[j]) for every row. len(out) must equal
// len(rows), and every row must have the same length. Whole 4-row groups go
// through the AVX2 kernel when that length is a positive multiple of 4:
// lane j is row j's float64 sum, fed its squares in k order, so every norm
// is Nrm2's bits. Rows may alias: the same row may fill many lanes.
func Nrm2Rows(rows [][]float32, out []float32) {
	if len(out) != len(rows) {
		panic("tensor: Nrm2Rows length mismatch")
	}
	if len(rows) == 0 {
		return
	}
	d := len(rows[0])
	for _, r := range rows {
		if len(r) != d {
			panic("tensor: Nrm2Rows rows of different lengths")
		}
	}
	k := 0
	if useAVX2 && d > 0 && d%4 == 0 {
		k = len(rows) &^ 3
	}
	if k > 0 {
		nrm2RowsAVX2(d, rows[:k], out[:k])
	}
	for j := k; j < len(rows); j++ {
		out[j] = Nrm2(rows[j])
	}
}

// IsZero reports whether every element of x is exactly zero.
func IsZero(x []float32) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// Matrix is a dense row-major matrix of float32 whose rows are embedding
// vectors. Data is a single backing slice of Rows*Cols elements, so a whole
// matrix can be communicated or checkpointed as one contiguous buffer.
//
// A Matrix has no internal synchronization: a matrix being written belongs
// to one goroutine; read-only sharing of a frozen matrix (the serving store)
// is safe as-is.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a mutable slice view into the backing array — no
// copy is made, so writes through the view are writes to the matrix, and
// the view stays valid (and aliased) for the life of the Matrix.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic("tensor: Matrix row out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// RandomizeNormal fills m with N(0, sigma^2) entries drawn from next, a
// function returning standard normal variates. Used for Glorot-style
// embedding initialization.
func (m *Matrix) RandomizeNormal(sigma float32, next func() float64) {
	for i := range m.Data {
		m.Data[i] = sigma * float32(next())
	}
}

// Bytes returns the size of the matrix payload in bytes (4 bytes/value).
func (m *Matrix) Bytes() int { return 4 * len(m.Data) }

// NonZeroRows returns the number of rows with at least one non-zero entry.
// Figure 2 of the paper tracks this quantity across training epochs.
func (m *Matrix) NonZeroRows() int {
	n := 0
	for i := 0; i < m.Rows; i++ {
		if !IsZero(m.Row(i)) {
			n++
		}
	}
	return n
}
