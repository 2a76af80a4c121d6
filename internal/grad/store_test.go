package grad

import (
	"math"
	"slices"
	"testing"

	"kgedist/internal/tensor"
	"kgedist/internal/xrand"
)

// AccumulateScoreGrad holds Row(h), Row(r) and Row(t) at once, so a slice
// returned for one id must survive anything done to other ids. A store that
// grows by reallocating would pass every value-level test and silently
// detach the held rows; this pins the contract on the storage itself.
func TestRowsStayValidWhileOthersChurn(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(5)
	a, b := g.Row(3), g.Row(700)
	for i := range a {
		a[i], b[i] = float32(i+1), -float32(i+1)
	}
	pa, pb := &a[0], &b[0]
	for i := 0; i < 10000; i++ {
		id := int32(1000 + i*7%4001)
		g.Row(id)[0] = 9 // new ids, new chunks, table growth
		if i%3 == 0 {
			g.Drop(id) // slot reuse: the next Row pops this slot
		}
	}
	for _, id := range g.Indices() {
		if id != 3 && id != 700 && id%2 == 0 {
			g.Drop(id)
		}
	}
	ra, rb := g.Row(3), g.Row(700)
	if &ra[0] != pa || &rb[0] != pb {
		t.Fatal("Row returned different storage for a live id")
	}
	for i := range a {
		if a[i] != float32(i+1) || b[i] != -float32(i+1) {
			t.Fatalf("held rows were overwritten: %v %v", a, b)
		}
	}
	a[0] = 42
	if got, _ := g.Get(3); got[0] != 42 {
		t.Fatal("held slice no longer aliases the accumulator")
	}
}

// mapGrad is the map-backed accumulator SparseGrad replaced, reduced to its
// semantics: the oracle the differential fuzz below compares against.
type mapGrad struct {
	width int
	rows  map[int32][]float32
}

func (o *mapGrad) row(id int32) []float32 {
	if o.rows[id] == nil {
		o.rows[id] = make([]float32, o.width)
	}
	return o.rows[id]
}

func (o *mapGrad) indices() []int32 {
	idx := make([]int32, 0, len(o.rows))
	for id := range o.rows {
		idx = append(idx, id)
	}
	slices.Sort(idx)
	return idx
}

func (o *mapGrad) flatten() ([]int32, []float32) {
	idx := o.indices()
	var flat []float32
	for _, id := range idx {
		flat = append(flat, o.rows[id]...)
	}
	return idx, flat
}

// FuzzSparseGradOracle drives SparseGrad and the map oracle with the same
// operation sequence and requires every observable to agree exactly. Each
// operation is three bytes: opcode, row id, value. The first byte of the
// input picks an id stride, so ids cross bitmap words, storage chunks and
// table growth.
func FuzzSparseGradOracle(f *testing.F) {
	f.Add([]byte{1, 0, 5, 9, 0, 200, 3, 2, 5, 0, 0, 5, 1, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{67, 0, 1, 1, 0, 2, 2, 7, 9, 140, 3, 0, 0, 0, 1, 200, 8, 0, 0, 9, 3, 130, 6, 0, 0})
	long := []byte{5} // enough operations to fill several chunks and reuse them after Clear
	for rng, i := xrand.New(1), 0; i < 3*2000; i++ {
		long = append(long, byte(rng.Intn(256)))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const w = 3
		stride := int32(data[0]%97) + 1
		g := NewSparseGrad(w)
		o := &mapGrad{width: w, rows: map[int32][]float32{}}
		val := func(b byte) float32 { return (float32(b) - 128) / 8 }
		check := func(op int) {
			t.Helper()
			idx, flat := g.Flatten()
			oidx, oflat := o.flatten()
			if !slices.Equal(idx, oidx) || !sameBits(flat, oflat) {
				t.Fatalf("op %d: rows diverged: got %v %v, oracle %v %v", op, idx, flat, oidx, oflat)
			}
			if g.Len() != len(oidx) || g.PayloadBytes() != 4*len(oidx)*(1+w) {
				t.Fatalf("op %d: Len %d PayloadBytes %d with %d rows", op, g.Len(), g.PayloadBytes(), len(oidx))
			}
		}
		for op := 0; 1+3*op+2 < len(data); op++ {
			code, b, v := data[1+3*op]%10, data[2+3*op], data[3+3*op]
			id := int32(b) * stride
			switch code {
			case 0: // Row, accumulate one value
				g.Row(id)[int(v)%w] += val(v)
				o.row(id)[int(v)%w] += val(v)
			case 1: // Get
				got, ok := g.Get(id)
				want, wok := o.rows[id]
				if ok != wok || !sameBits(got, want) {
					t.Fatalf("op %d: Get(%d) = %v %v, oracle %v %v", op, id, got, ok, want, wok)
				}
			case 2:
				g.Drop(id)
				delete(o.rows, id)
			case 3:
				if v%4 == 0 { // Clear is drastic; let most sequences keep their rows
					g.Clear()
					clear(o.rows)
				}
			case 4:
				if got, want := g.Indices(), o.indices(); !slices.Equal(got, want) {
					t.Fatalf("op %d: Indices %v, oracle %v", op, got, want)
				}
			case 5: // ForEach visits ascending ids with their rows, and may scale in place
				want := o.indices()
				k := 0
				g.ForEach(func(id int32, row []float32) {
					if k >= len(want) || id != want[k] || !sameBits(row, o.rows[id]) {
						t.Fatalf("op %d: ForEach step %d saw id %d %v, oracle ids %v", op, k, id, row, want)
					}
					tensor.Scale(val(v), row)
					tensor.Scale(val(v), o.rows[id])
					k++
				})
				if k != len(want) {
					t.Fatalf("op %d: ForEach visited %d rows, oracle has %d", op, k, len(want))
				}
			case 6: // AddFlat of the current rows shifted by up to two ids: overlaps and fresh ids
				if len(o.rows) > 512 {
					break // each shifted AddFlat can double the row count
				}
				idx, flat := o.flatten()
				for i := range idx {
					idx[i] += int32(v % 3)
				}
				g.AddFlat(idx, flat)
				for i, id := range idx {
					tensor.Add(flat[i*w:(i+1)*w], o.row(id))
				}
			case 7: // ScatterDense
				rows := 1
				if idx := o.indices(); len(idx) > 0 {
					rows = int(idx[len(idx)-1]) + 1
				}
				got, want := make([]float32, rows*w), make([]float32, rows*w)
				got[0] = 7 // ScatterDense zeroes first
				g.ScatterDense(got)
				for id, row := range o.rows {
					copy(want[int(id)*w:], row)
				}
				if !sameBits(got, want) {
					t.Fatalf("op %d: ScatterDense diverged", op)
				}
			case 8: // AccumulateDense: a dense buffer with two non-zero rows
				dense := make([]float32, (int(id)+2)*w)
				dense[int(id)*w+int(v)%w] = val(v)
				dense[(int(id)+1)*w] = 1
				g.AccumulateDense(dense)
				if v != 128 { // val(128) is 0: an all-zero dense row is skipped, not materialized
					tensor.Add(dense[int(id)*w:(int(id)+1)*w], o.row(id))
				}
				tensor.Add(dense[(int(id)+1)*w:], o.row(id+1))
			case 9: // NormStats: norms parallel to Indices, mean summed in that order
				mean, norms := g.NormStats()
				var sum float64
				for k, id := range o.indices() {
					n := tensor.Nrm2(o.rows[id])
					if math.Float32bits(norms[k]) != math.Float32bits(n) {
						t.Fatalf("op %d: norm of row %d is %v, oracle %v", op, id, norms[k], n)
					}
					sum += float64(n)
				}
				want := float32(0)
				if len(o.rows) > 0 {
					want = float32(sum / float64(len(o.rows)))
				}
				if math.Float32bits(mean) != math.Float32bits(want) {
					t.Fatalf("op %d: mean norm %v, oracle %v", op, mean, want)
				}
			}
			check(op)
		}
	})
}
