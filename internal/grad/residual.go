package grad

import "kgedist/internal/tensor"

// Residual implements error-feedback accumulation for compressed gradients
// (Karimireddy et al. 2019; discussed in the paper's related work, §2): the
// quantization error of each step is stored and added back into the next
// step's gradient, which provably fixes the bias of sign-based compression.
//
// This is an optional extension: the paper's main pipeline communicates the
// quantized gradient without feedback. The ablation benches compare both.
//
// A Residual banks its rows in a SparseGrad store and recycles it and the
// decode scratch internally, so the per-step AddInto/Update cycle is
// allocation-free once the row working set is warm. Not safe for concurrent
// use; each worker owns its own.
type Residual struct {
	rows    *SparseGrad // banked error, one row per id still owed
	decoded *SparseGrad // Update's dequantize scratch, reused across steps
}

// NewResidual returns an empty residual store for rows of the given width.
func NewResidual(width int) *Residual {
	return &Residual{rows: NewSparseGrad(width), decoded: NewSparseGrad(width)}
}

// Len returns the number of rows currently holding residual error.
func (r *Residual) Len() int { return r.rows.Len() }

// AddInto adds the stored residual into every matching row of g, consuming
// it. Rows with residual but no gradient this step keep their residual for
// a later step (they are not communicated now anyway). g's rows are
// mutated in place.
func (r *Residual) AddInto(g *SparseGrad) {
	if g.Width() != r.rows.width {
		panic("grad: residual width mismatch")
	}
	g.ForEach(func(id int32, row []float32) {
		if res, ok := r.rows.Get(id); ok {
			tensor.Add(res, row)
			r.rows.Drop(id)
		}
	})
}

// Update records the quantization error for the rows of g: for each row
// present in g, the stored residual becomes g_row - decoded_row, where
// decoded is the dequantized representation the other ranks will apply.
// g and e are only read.
func (r *Residual) Update(g *SparseGrad, e *Encoded) {
	if g.Width() != r.rows.width {
		panic("grad: residual width mismatch")
	}
	r.decoded.Clear()
	Dequantize(e, r.decoded)
	g.ForEach(func(id int32, row []float32) {
		dec, ok := r.decoded.Get(id)
		if !ok {
			return
		}
		res := r.rows.Row(id)
		for i := range res {
			res[i] = row[i] - dec[i]
		}
	})
}

// SetRow stores a copy of row as the residual for id, replacing any prior
// content. This is the whole-row bank of the RS rung of the compression
// ladder (DESIGN.md §13): SelectEF calls it for every row selection drops,
// so the row's full signal re-enters a later step instead of vanishing. In
// the error-feedback cycle the prior residual for a dropped row was already
// consumed by AddInto (dropped rows are a subset of the step's gradient
// rows), so replacement never discards unconsumed error.
func (r *Residual) SetRow(id int32, row []float32) {
	if len(row) != r.rows.width {
		panic("grad: residual width mismatch")
	}
	copy(r.rows.Row(id), row)
}
