package grad

import (
	"slices"

	"kgedist/internal/xrand"
)

// SelectMode chooses how the random-selection strategy (§4.2) filters
// gradient rows before communication.
type SelectMode int

// Selection modes compared in Figure 3 of the paper.
const (
	// SelectAll disables selection (the dense baseline).
	SelectAll SelectMode = iota
	// SelectAvgThreshold drops rows whose 2-norm is below the mean norm.
	SelectAvgThreshold
	// SelectAvgTenthThreshold drops rows whose 2-norm is below 0.1x the
	// mean norm (the paper's "averagex0.1").
	SelectAvgTenthThreshold
	// SelectBernoulli keeps row i with probability min(1, ||g_i||/C),
	// C = mean 2-norm — the paper's chosen method ("random selection").
	SelectBernoulli
	// SelectTopQuarter keeps the top 25% of rows by 2-norm — the
	// threshold-sparsification baseline of Aji & Heafield (2017) discussed
	// in the paper's related work (§2).
	SelectTopQuarter
	// SelectUnbiased keeps rows like SelectBernoulli but rescales each
	// kept row by 1/p so the sparse gradient is an unbiased estimator of
	// the dense one — the Wangni et al. (2017) variance-controlled scheme
	// from the related work.
	SelectUnbiased
)

// String returns the paper's name for the mode.
func (m SelectMode) String() string {
	switch m {
	case SelectAll:
		return "none"
	case SelectAvgThreshold:
		return "average"
	case SelectAvgTenthThreshold:
		return "averagex0.1"
	case SelectBernoulli:
		return "random-selection"
	case SelectTopQuarter:
		return "top-25%"
	case SelectUnbiased:
		return "unbiased-selection"
	}
	return "unknown"
}

// SelectStats reports the effect of one selection pass.
type SelectStats struct {
	Before  int // rows before selection
	Kept    int // rows surviving
	Dropped int // rows removed
}

// Sparsity returns the dropped fraction in [0,1].
func (s SelectStats) Sparsity() float64 {
	if s.Before == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Before)
}

// Select filters g in place per the mode and returns statistics. Dropped
// rows are discarded entirely: they are neither communicated nor applied,
// exactly as in the paper (no residual is kept unless the caller layers a
// Residual on top).
func Select(g *SparseGrad, mode SelectMode, rng *xrand.RNG) SelectStats {
	return selectRows(g, mode, rng, nil)
}

// SelectEF filters like Select but banks every dropped row whole into res
// before removing it — the error-feedback variant the compression ladder's
// RS rung uses (DESIGN.md §13), so sparsified-away signal re-enters a later
// step via Residual.AddInto instead of being lost. The rng is consumed
// exactly as by Select: for a fixed seed the two keep the same rows.
func SelectEF(g *SparseGrad, mode SelectMode, rng *xrand.RNG, res *Residual) SelectStats {
	return selectRows(g, mode, rng, res)
}

//kgelint:hotpath
func selectRows(g *SparseGrad, mode SelectMode, rng *xrand.RNG, res *Residual) SelectStats {
	st := SelectStats{Before: g.Len()}
	if mode == SelectAll || g.Len() == 0 {
		st.Kept = st.Before
		return st
	}
	mean, norms := g.NormStats()
	if mean == 0 {
		// All-zero gradient: nothing carries signal; keep everything to
		// stay faithful to "threshold relative to average".
		st.Kept = st.Before
		return st
	}
	var thresh float32
	if mode == SelectTopQuarter {
		thresh = quantileNorm(norms, 0.75)
	}
	// Indices is a snapshot Drop never touches, so dropping while ranging
	// over it is safe; norms is parallel to it.
	for k, id := range g.Indices() {
		n := norms[k]
		keep := false
		scale := float32(1)
		switch mode {
		case SelectAvgThreshold:
			keep = n >= mean
		case SelectAvgTenthThreshold:
			keep = n >= 0.1*mean
		case SelectBernoulli:
			keep = rng.Bernoulli(float64(n) / float64(mean))
		case SelectTopQuarter:
			keep = n >= thresh
		case SelectUnbiased:
			p := float64(n) / float64(mean)
			keep = rng.Bernoulli(p)
			if keep && p < 1 {
				scale = float32(1 / p)
			}
		default:
			panic("grad: unknown select mode")
		}
		if keep {
			st.Kept++
			if scale != 1 { //kgelint:ignore floateq scale is exactly 1 unless a mode set it
				row, _ := g.Get(id)
				for i := range row {
					row[i] *= scale
				}
			}
		} else {
			if res != nil {
				row, _ := g.Get(id)
				res.SetRow(id, row)
			}
			g.Drop(id)
			st.Dropped++
		}
	}
	return st
}

// quantileNorm returns the q-quantile of the norm values.
//
//kgelint:coldpath only SelectTopQuarter, a related-work baseline outside the paper's pipeline, sorts a copy
func quantileNorm(norms []float32, q float64) float32 {
	vals := slices.Clone(norms)
	slices.Sort(vals)
	return vals[int(q*float64(len(vals)-1))]
}
