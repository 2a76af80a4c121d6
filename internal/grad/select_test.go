package grad

import (
	"math"
	"testing"

	"kgedist/internal/xrand"
)

// mkGrad builds a gradient with rows of controlled norms: row i has norm
// norms[i] (id = i).
func mkGrad(width int, norms []float32) *SparseGrad {
	g := NewSparseGrad(width)
	for i, n := range norms {
		row := g.Row(int32(i))
		row[0] = n // norm equals |n|
	}
	return g
}

func TestSelectAllKeepsEverything(t *testing.T) {
	t.Parallel()
	g := mkGrad(4, []float32{1, 2, 3})
	st := Select(g, SelectAll, nil)
	if st.Kept != 3 || st.Dropped != 0 || g.Len() != 3 {
		t.Fatalf("stats %+v len %d", st, g.Len())
	}
	if st.Sparsity() != 0 {
		t.Fatalf("sparsity %v", st.Sparsity())
	}
}

func TestSelectAvgThreshold(t *testing.T) {
	t.Parallel()
	// Norms 1,2,3,6 -> mean 3; rows with norm >= 3 survive (ids 2,3).
	g := mkGrad(4, []float32{1, 2, 3, 6})
	st := Select(g, SelectAvgThreshold, nil)
	if st.Kept != 2 || st.Dropped != 2 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := g.Get(0); ok {
		t.Fatal("row 0 should be dropped")
	}
	if _, ok := g.Get(3); !ok {
		t.Fatal("row 3 should survive")
	}
}

func TestSelectAvgTenthThreshold(t *testing.T) {
	t.Parallel()
	// Mean 3; 0.1x mean = 0.3; only the 0.1-norm row drops.
	g := mkGrad(4, []float32{0.1, 2.9, 3, 6})
	st := Select(g, SelectAvgTenthThreshold, nil)
	if st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := g.Get(0); ok {
		t.Fatal("row 0 should be dropped")
	}
}

func TestSelectBernoulliKeepsLargeRowsAlways(t *testing.T) {
	t.Parallel()
	// Rows with norm >= mean have keep probability 1.
	rng := xrand.New(1)
	for trial := 0; trial < 50; trial++ {
		g := mkGrad(4, []float32{1, 2, 3, 6})
		Select(g, SelectBernoulli, rng)
		if _, ok := g.Get(3); !ok {
			t.Fatal("row with norm 2x mean was dropped")
		}
	}
}

func TestSelectBernoulliEmpiricalRate(t *testing.T) {
	t.Parallel()
	// A row with norm = mean/2 must survive about half the time.
	rng := xrand.New(2)
	kept := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		// Norms 1 and 3: mean 2; row 0 keep prob 0.5, row 1 prob 1.
		g := mkGrad(2, []float32{1, 3})
		Select(g, SelectBernoulli, rng)
		if _, ok := g.Get(0); ok {
			kept++
		}
	}
	rate := float64(kept) / trials
	if math.Abs(rate-0.5) > 0.05 {
		t.Fatalf("empirical keep rate %v, want ~0.5", rate)
	}
}

// SelectBernoulli's coins are drawn 64 rows at a time; the kept rows and
// the rng state must be those of one Bernoulli call per row, in row order,
// on either side of the 64-row chunk.
func TestSelectBernoulliMatchesRowByRow(t *testing.T) {
	t.Parallel()
	rng := xrand.New(3)
	for trial := 0; trial < 50; trial++ {
		rows := []int{1, 63, 64, 65, 200}[trial%5]
		norms := make([]float32, rows)
		for i := range norms {
			if rng.Intn(5) != 0 { // every fifth row or so all zero
				u := rng.Float32()
				norms[i] = u * u
			}
		}
		g := mkGrad(4, norms)
		mean, ns := g.NormStats()
		if mean == 0 {
			continue // all zero: kept whole, no draw (TestSelectZeroGradientKeepsAll)
		}
		want := map[int32]bool{}
		ref, got := *rng, *rng
		for k, id := range g.Indices() {
			want[id] = ref.Bernoulli(float64(ns[k]) / float64(mean))
		}
		Select(g, SelectBernoulli, &got)
		for id, keep := range want {
			if _, ok := g.Get(id); ok != keep {
				t.Fatalf("%d rows: row %d kept %v, row-by-row draws %v", rows, id, ok, keep)
			}
		}
		if got != ref {
			t.Fatalf("%d rows: rng state diverged from the row-by-row draws", rows)
		}
		*rng = got
	}
}

func TestSelectZeroGradientKeepsAll(t *testing.T) {
	t.Parallel()
	g := mkGrad(4, []float32{0, 0})
	st := Select(g, SelectBernoulli, xrand.New(1))
	if st.Dropped != 0 {
		t.Fatalf("zero gradient rows dropped: %+v", st)
	}
}

func TestSelectEmptyGradient(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(4)
	st := Select(g, SelectBernoulli, xrand.New(1))
	if st.Before != 0 || st.Kept != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSelectModeString(t *testing.T) {
	t.Parallel()
	cases := map[SelectMode]string{
		SelectAll:               "none",
		SelectAvgThreshold:      "average",
		SelectAvgTenthThreshold: "averagex0.1",
		SelectBernoulli:         "random-selection",
		SelectMode(99):          "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestSelectSparsityOrdering(t *testing.T) {
	t.Parallel()
	// Figure 3b of the paper: averaging threshold is the most aggressive,
	// averagex0.1 the least, Bernoulli in between, on a heavy-tailed norm
	// distribution.
	rng := xrand.New(7)
	norms := make([]float32, 500)
	for i := range norms {
		norms[i] = float32(math.Exp(rng.NormFloat64())) // lognormal tail
	}
	run := func(mode SelectMode) float64 {
		g := mkGrad(4, norms)
		return Select(g, mode, xrand.New(9)).Sparsity()
	}
	avg := run(SelectAvgThreshold)
	tenth := run(SelectAvgTenthThreshold)
	bern := run(SelectBernoulli)
	if !(avg > bern && bern > tenth) {
		t.Fatalf("sparsity ordering violated: avg %v bern %v tenth %v", avg, bern, tenth)
	}
	if bern < 0.1 {
		t.Fatalf("Bernoulli selection produced almost no sparsity: %v", bern)
	}
}

// SelectEF must drop exactly the rows Select drops for the same seed (the
// rng consumption is identical) and bank each dropped row whole into the
// residual, so a later AddInto reinjects it (DESIGN.md §13).
func TestSelectEFBanksDroppedRows(t *testing.T) {
	t.Parallel()
	build := func() *SparseGrad {
		g := NewSparseGrad(4)
		for i := int32(0); i < 40; i++ {
			row := g.Row(i)
			row[0] = float32(i%7) * 0.3 // mixed norms: some rows drop
		}
		return g
	}
	plain := build()
	Select(plain, SelectBernoulli, xrand.New(55))

	g := build()
	want := map[int32][]float32{}
	build().ForEach(func(id int32, row []float32) {
		want[id] = append([]float32(nil), row...)
	})
	res := NewResidual(4)
	st := SelectEF(g, SelectBernoulli, xrand.New(55), res)
	if st.Dropped == 0 {
		t.Fatal("test needs at least one dropped row")
	}
	// Same survivors as plain Select under the same seed.
	if g.Len() != plain.Len() {
		t.Fatalf("SelectEF kept %d rows, Select kept %d", g.Len(), plain.Len())
	}
	g.ForEach(func(id int32, _ []float32) {
		if _, ok := plain.Get(id); !ok {
			t.Fatalf("SelectEF kept row %d that Select dropped", id)
		}
	})
	if res.Len() != st.Dropped {
		t.Fatalf("residual holds %d rows, want %d dropped", res.Len(), st.Dropped)
	}
	// Reinjection: an empty gradient plus the residual equals the dropped rows.
	back := NewSparseGrad(4)
	plain.ForEach(func(id int32, _ []float32) { delete(want, id) })
	for id := range want {
		back.Row(id) // materialize zero rows so AddInto finds them
	}
	res.AddInto(back)
	for id, row := range want {
		got, ok := back.Get(id)
		if !ok {
			t.Fatalf("dropped row %d not reinjected", id)
		}
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("row %d col %d: reinjected %v, want %v", id, i, got[i], row[i])
			}
		}
	}
}

// SetRow replaces any prior residual for the id and copies the row.
func TestResidualSetRow(t *testing.T) {
	t.Parallel()
	r := NewResidual(3)
	src := []float32{1, 2, 3}
	r.SetRow(7, src)
	src[0] = 99 // the residual must hold a copy, not an alias
	r.SetRow(7, []float32{4, 5, 6})
	if r.Len() != 1 {
		t.Fatalf("residual holds %d rows, want 1 (replace semantics)", r.Len())
	}
	g := NewSparseGrad(3)
	g.Row(7)
	r.AddInto(g)
	got, _ := g.Get(7)
	for i, want := range []float32{4, 5, 6} {
		if got[i] != want {
			t.Fatalf("col %d: %v, want %v", i, got[i], want)
		}
	}
}
