package grad

import "testing"

func TestSparseGradBasics(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(3)
	if g.Len() != 0 || g.Width() != 3 {
		t.Fatalf("fresh grad: len %d width %d", g.Len(), g.Width())
	}
	r := g.Row(5)
	r[0] = 1
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	r2 := g.Row(5)
	if r2[0] != 1 {
		t.Fatal("Row did not return the same storage")
	}
	if _, ok := g.Get(6); ok {
		t.Fatal("Get materialized a row")
	}
	g.Drop(5)
	if g.Len() != 0 {
		t.Fatal("Drop failed")
	}
}

func TestSparseGradPanicsOnBadWidth(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparseGrad(0)
}

func TestIndicesSorted(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	for _, id := range []int32{9, 1, 5, 3} {
		g.Row(id)[0] = float32(id)
	}
	idx := g.Indices()
	want := []int32{1, 3, 5, 9}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("Indices = %v", idx)
		}
	}
}

func TestFlattenAddFlatRoundTrip(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	g.Row(3)[0] = 1
	g.Row(3)[1] = 2
	g.Row(7)[0] = -1
	idx, flat := g.Flatten()
	if len(idx) != 2 || len(flat) != 4 {
		t.Fatalf("Flatten sizes %d %d", len(idx), len(flat))
	}
	h := NewSparseGrad(2)
	h.AddFlat(idx, flat)
	h.AddFlat(idx, flat)
	row, _ := h.Get(3)
	if row[0] != 2 || row[1] != 4 {
		t.Fatalf("AddFlat accumulation wrong: %v", row)
	}
}

func TestAddFlatPanicsOnMismatch(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddFlat([]int32{1}, []float32{1, 2, 3})
}

func TestScatterAccumulateDense(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	g.Row(1)[0] = 5
	g.Row(2)[1] = 7
	buf := make([]float32, 4*2) // 4 rows
	for i := range buf {
		buf[i] = 99 // ScatterDense must zero first
	}
	g.ScatterDense(buf)
	if buf[0] != 0 || buf[2] != 5 || buf[5] != 7 {
		t.Fatalf("ScatterDense wrong: %v", buf)
	}
	h := NewSparseGrad(2)
	h.AccumulateDense(buf)
	if h.Len() != 2 {
		t.Fatalf("AccumulateDense rows = %d", h.Len())
	}
	row, _ := h.Get(2)
	if row[1] != 7 {
		t.Fatalf("AccumulateDense values wrong: %v", row)
	}
}

func TestNormStats(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	copy(g.Row(0), []float32{3, 4}) // norm 5
	copy(g.Row(1), []float32{0, 1}) // norm 1
	mean, norms := g.NormStats()
	if mean != 3 {
		t.Fatalf("mean = %v", mean)
	}
	if norms[0] != 5 || norms[1] != 1 {
		t.Fatalf("norms = %v", norms)
	}
	empty := NewSparseGrad(2)
	if m, _ := empty.NormStats(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestPayloadBytes(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(4)
	g.Row(0)
	g.Row(1)
	// 2 indices * 4 + 2 rows * 4 floats * 4 bytes = 40.
	if got := g.PayloadBytes(); got != 40 {
		t.Fatalf("PayloadBytes = %d", got)
	}
}

func TestClearRetainsNothing(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(2)
	g.Row(1)[0] = 3
	g.Clear()
	if g.Len() != 0 {
		t.Fatal("Clear left rows")
	}
	if row := g.Row(1); row[0] != 0 {
		t.Fatal("Clear left stale values")
	}
}

func TestForEachOrdered(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(1)
	for _, id := range []int32{4, 2, 8} {
		g.Row(id)
	}
	var got []int32
	g.ForEach(func(id int32, _ []float32) { got = append(got, id) })
	if len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("ForEach order %v", got)
	}
}
