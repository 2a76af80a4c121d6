package grad

import "kgedist/internal/xrand"

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
	// Indices is a snapshot Drop never touches, so dropping while ranging
	// over it is safe; norms is parallel to it. Rows are decided 64 at a
	// time into a keep mask, SelectBernoulli's coins in one BernoulliMask
	// call — the draws Bernoulli would make row by row.
	var p [64]float64
	ids := g.Indices()
	for k0 := 0; k0 < len(ids); k0 += 64 {
		chunk := ids[k0:min(k0+64, len(ids))]
		var keep uint64
		for j := range chunk {
			n := norms[k0+j]
			switch mode {
			case SelectAvgThreshold:
				if n >= mean {
					keep |= 1 << j
				}
			case SelectAvgTenthThreshold:
				if n >= 0.1*mean {
					keep |= 1 << j
				}
			case SelectBernoulli:
				p[j] = float64(n) / float64(mean)
			default:
				panic("grad: unknown select mode")
			}
		}
		if mode == SelectBernoulli {
			keep = rng.BernoulliMask(p[:len(chunk)])
		}
		for j, id := range chunk {
			if keep>>j&1 != 0 {
				st.Kept++
				continue
			}
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
