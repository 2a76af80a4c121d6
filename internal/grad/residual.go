package grad

import (
	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// Residual implements error-feedback accumulation for compressed gradients
// (Karimireddy et al. 2019; discussed in the paper's related work, §2): the
// quantization error of each step is stored and added back into the next
// step's gradient, which provably fixes the bias of sign-based compression.
//
// This is an optional extension: the paper's main pipeline communicates the
// quantized gradient without feedback. The ablation benches compare both.
//
// A Residual banks its rows in a SparseGrad store it recycles internally, so
// the per-step AddInto/QuantizeInto cycle is allocation-free once the row
// working set is warm. Not safe for concurrent use; each worker owns its
// own.
type Residual struct {
	rows *SparseGrad // banked error, one row per id still owed
}

// NewResidual returns an empty residual store for rows of the given width.
func NewResidual(width int) *Residual {
	return &Residual{rows: NewSparseGrad(width)}
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

// QuantizeInto encodes g under scheme s into e exactly as the package-level
// QuantizeInto does, consuming rng the same way, and records each encoded
// row's quantization error as its residual: the stored row for id becomes
// g_row − decoded_row, decoded_row being what Dequantize of e adds into an
// empty row — the representation the other ranks apply. The error is
// written while the row is still hot from its encode. g is only read.
func (r *Residual) QuantizeInto(e *Encoded, g *SparseGrad, s Scheme, rng *xrand.RNG) {
	if g.Width() != r.rows.width {
		panic("grad: residual width mismatch")
	}
	quantize(e, g, s, rng, r.rows)
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
