package mpi

import (
	"math"
	"strings"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/pool"
	"kgedist/internal/xrand"
)

// encGrad builds one rank's sparse gradient over [0, rows) with roughly half
// the rows populated (rank-dependent pattern, so ranks overlap on some rows
// and are unique on others), then encodes it with the scheme.
func encGrad(rank, rows, width int, s grad.Scheme, seed uint64) (*grad.Encoded, *grad.SparseGrad) {
	rng := xrand.New(seed + uint64(rank))
	g := grad.NewSparseGrad(width)
	for id := 0; id < rows; id++ {
		// Every rank touches ids divisible by 3 (guaranteed overlap); the
		// rest are scattered per rank.
		if id%3 == 0 || (id+rank)%2 == 0 {
			row := g.Row(int32(id))
			for j := range row {
				row[j] = float32(rng.NormFloat64())
			}
		}
	}
	return grad.Quantize(g, s, rng), g
}

// The compressed ring must hand every rank a fully reduced chunk tiling
// [0, rows): under NoQuant exactly the float sum of all ranks' rows, and the
// chunk boundaries must match the dense ring's arithmetic chunking.
func TestReduceScatterEncodedNoQuantExact(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		const rows, width = 29, 6
		w := newWorld(p)
		want := grad.NewSparseGrad(width)
		encs := make([]*grad.Encoded, p)
		for r := 0; r < p; r++ {
			var g *grad.SparseGrad
			encs[r], g = encGrad(r, rows, width, grad.NoQuant, 100)
			g.ForEach(func(id int32, row []float32) {
				dst := want.Row(id)
				for i, v := range row {
					dst[i] += v
				}
			})
		}
		got := make([]*grad.SparseGrad, p)
		w.Run(func(c *Comm) {
			var mg grad.Merger
			chunk, cost, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, nil, "rse")
			if err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			if p > 1 && cost <= 0 {
				t.Errorf("rank %d: non-positive cost %v", c.Rank(), cost)
			}
			dec := grad.NewSparseGrad(width)
			grad.Dequantize(chunk, dec)
			got[c.Rank()] = dec
			// The chunk must stay inside this rank's owned id window.
			own := (c.Rank() + 1) % p
			lo, hi := int32(own*rows/p), int32((own+1)*rows/p)
			for _, id := range chunk.Indices {
				if id < lo || id >= hi {
					t.Errorf("rank %d: row %d outside owned window [%d,%d)", c.Rank(), id, lo, hi)
				}
			}
		})
		// Together the chunks must cover every reduced row exactly once.
		covered := map[int32]bool{}
		for r := 0; r < p; r++ {
			got[r].ForEach(func(id int32, row []float32) {
				if covered[id] {
					t.Fatalf("p=%d: row %d owned twice", p, id)
				}
				covered[id] = true
				ref, ok := want.Get(id)
				if !ok {
					t.Fatalf("p=%d: row %d unexpected", p, id)
				}
				for i := range row {
					if math.Abs(float64(row[i]-ref[i])) > 1e-5 {
						t.Fatalf("p=%d row %d col %d: got %v want %v", p, id, i, row[i], ref[i])
					}
				}
			})
		}
		want.ForEach(func(id int32, _ []float32) {
			if !covered[id] {
				t.Fatalf("p=%d: reduced row %d missing from every chunk", p, id)
			}
		})
	}
}

// Lossy schemes ride the same ring; the result must be structurally valid
// (scheme preserved, rows inside the owned window, payload decodable) and
// identical across repeated runs for a fixed seed — the determinism the
// chan-vs-TCP trajectory gate relies on.
func TestReduceScatterEncodedLossyDeterministic(t *testing.T) {
	for _, s := range []grad.Scheme{grad.OneBitMax, grad.TwoBitTernary} {
		const p, rows, width = 3, 20, 8
		run := func() []string {
			w := newWorld(p)
			encs := make([]*grad.Encoded, p)
			for r := 0; r < p; r++ {
				encs[r], _ = encGrad(r, rows, width, s, 200)
			}
			frames := make([]string, p)
			w.Run(func(c *Comm) {
				var mg grad.Merger
				rng := xrand.New(uint64(1000 + c.Rank()))
				chunk, _, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, rng, "rse")
				if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				if chunk.Scheme != s {
					t.Errorf("rank %d: scheme changed to %v", c.Rank(), chunk.Scheme)
				}
				frames[c.Rank()] = string(chunk.Marshal())
			})
			return frames
		}
		a, b := run(), run()
		for r := range a {
			if a[r] != b[r] {
				t.Fatalf("%v: rank %d chunk differs between identical runs", s, r)
			}
		}
	}
}

// The owner-merge contract: every rank's reduced chunk equals, byte for
// byte, a k-way merge of the p slices of that chunk in source order
// c, c+1, …, c+p−1 with the same rng stream, and the ledger moves exactly the
// direct slices' frame sizes.
func TestReduceScatterEncodedMatchesOwnerMerge(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, s := range []grad.Scheme{grad.NoQuant, grad.OneBitMax, grad.OneBitAvg, grad.TwoBitTernary} {
			const rows, width = 37, 6
			encs := make([]*grad.Encoded, p)
			for r := range encs {
				encs[r], _ = encGrad(r, rows, width, s, 500)
			}
			w := newWorld(p)
			got := make([]string, p)
			w.Run(func(c *Comm) {
				var mg grad.Merger
				chunk, _, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, xrand.New(uint64(900+c.Rank())), "rse")
				if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
					return
				}
				got[c.Rank()] = string(chunk.Marshal())
			})
			var direct int64
			for r := 0; r < p; r++ {
				first := (r + 1) % p
				lo, hi := ReducedChunk(r, rows, p)
				views := make([]grad.Encoded, p)
				frames := make([]*grad.Encoded, p)
				for j := range frames {
					src := encs[(first+j)%p]
					i0, i1 := src.RowRange(lo, hi)
					src.Range(i0, i1, &views[j])
					frames[j] = &views[j]
					if j < p-1 {
						direct += int64(len(src.AppendRangeTo(nil, i0, i1)))
					}
				}
				var ref grad.Merger
				if want := ref.Merge(frames, xrand.New(uint64(900+r))); got[r] != string(want.Marshal()) {
					t.Errorf("p=%d %v rank %d: reduced chunk differs from the owner merge", p, s, r)
				}
			}
			if moved := w.Cluster().BytesByTag()["rse"]; moved != direct {
				t.Errorf("p=%d %v: ledger moved %d bytes, direct slices total %d", p, s, moved, direct)
			}
		}
	}
}

// p=1 short-circuits: the input frame comes back untouched at zero cost.
func TestReduceScatterEncodedSingleRank(t *testing.T) {
	w := newWorld(1)
	e, _ := encGrad(0, 10, 4, grad.OneBitMax, 7)
	w.Run(func(c *Comm) {
		var mg grad.Merger
		chunk, cost, err := c.ReduceScatterEncoded(e, 10, &mg, nil, "rse")
		if err != nil {
			t.Fatal(err)
		}
		if chunk != e || cost != 0 {
			t.Fatalf("single-rank: chunk=%p (want %p), cost=%v", chunk, e, cost)
		}
	})
}

// Every rank must be charged the identical cost and byte volume even though
// per-hop frame sizes differ per rank — the composed scalar sum agreement.
func TestReduceScatterEncodedCostAgreement(t *testing.T) {
	const p, rows, width = 4, 33, 5
	w := newWorld(p)
	encs := make([]*grad.Encoded, p)
	for r := 0; r < p; r++ {
		encs[r], _ = encGrad(r, rows, width, grad.OneBitMax, 300)
	}
	costs := make([]float64, p)
	w.Run(func(c *Comm) {
		var mg grad.Merger
		_, cost, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, nil, "rse")
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		costs[c.Rank()] = cost
	})
	for r := 1; r < p; r++ {
		if costs[r] != costs[0] {
			t.Fatalf("rank %d charged %v, rank 0 charged %v", r, costs[r], costs[0])
		}
	}
}

// A hop frame is peer bytes: one that does not decode, or decodes to the
// wrong scheme, the wrong width or a row outside the chunk it stands for, is
// an error naming the sender — never a panic in the merge. Rank 1 hand-sends
// the frame; rank 0 runs the collective and expects chunk 1, ids [5, 10).
func TestReduceScatterEncodedRejectsBadHopFrames(t *testing.T) {
	const rows, width = 10, 4
	own, _ := encGrad(0, rows, width, grad.OneBitMax, 400)
	frame := func(s grad.Scheme, width int, ids ...int32) []byte {
		g := grad.NewSparseGrad(width)
		for _, id := range ids {
			g.Row(id)[0] = 1
		}
		return grad.Quantize(g, s, xrand.New(1)).Marshal()
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"undecodable", []byte{1, 2, 3}},
		{"wrong scheme", frame(grad.TwoBitTernary, width, 6)},
		{"wrong width", frame(grad.OneBitMax, width+1, 6)},
		{"id below the chunk", frame(grad.OneBitMax, width, 4, 6)},
		{"id past the chunk", frame(grad.OneBitMax, width, 6, rows)},
	} {
		err := newWorld(2).RunErr(func(c *Comm) error {
			if c.Rank() == 1 {
				if err := c.send(0, message{Raw: tc.frame}); err != nil {
					return err
				}
				m, err := c.recv(0)
				pool.PutBytes(m.Raw)
				return err
			}
			var mg grad.Merger
			_, _, err := c.ReduceScatterEncoded(own, rows, &mg, nil, "rse")
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "corrupt compressed hop frame from rank 1") {
			t.Errorf("%s: err = %v, want a corrupt hop frame naming rank 1", tc.name, err)
		}
	}
}
