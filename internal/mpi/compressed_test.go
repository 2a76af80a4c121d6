package mpi

import (
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"kgedist/internal/grad"
	"kgedist/internal/pool"
	"kgedist/internal/simnet"
	"kgedist/internal/xrand"
)

// overlapping is encGrad's row pattern: every rank holds the ids divisible
// by 3 (guaranteed overlap), and the rest are scattered per rank.
func overlapping(rank, id int) bool { return id%3 == 0 || (id+rank)%2 == 0 }

// encGrad builds one rank's sparse gradient over [0, rows) with roughly half
// the rows populated (the overlapping pattern, so ranks overlap on some rows
// and are unique on others), then encodes it with the scheme.
func encGrad(rank, rows, width int, s grad.Scheme, seed uint64) (*grad.Encoded, *grad.SparseGrad) {
	return encRows(rank, rows, width, s, seed, overlapping)
}

// encRows builds one rank's gradient over the ids in [0, rows) that has
// selects, with normal-random values, and encodes it with the scheme.
func encRows(rank, rows, width int, s grad.Scheme, seed uint64, has func(rank, id int) bool) (*grad.Encoded, *grad.SparseGrad) {
	rng := xrand.New(seed + uint64(rank))
	g := grad.NewSparseGrad(width)
	for id := 0; id < rows; id++ {
		if has(rank, id) {
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
				lo, hi := reducedChunk(r, rows, p)
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

// gatheredChunks runs the two-collective pipeline AllReduceEncoded replaces —
// ReduceScatterEncoded, AllGatherBytes of the marshaled chunk, UnmarshalInto
// — and returns, per rank, the marshaled frame it decoded from each source,
// plus the bytes the two collectives charged.
func gatheredChunks(t *testing.T, encs []*grad.Encoded, rows int) ([][]string, int64) {
	t.Helper()
	p := len(encs)
	w := newWorld(p)
	got := make([][]string, p)
	w.Run(func(c *Comm) {
		var mg grad.Merger
		chunk, _, err := c.ReduceScatterEncoded(encs[c.Rank()], rows, &mg, xrand.New(uint64(900+c.Rank())), "rse")
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		payloads, _, err := c.AllGatherBytes(chunk.Marshal(), "ag")
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		for _, b := range payloads {
			var e grad.Encoded
			if err := grad.UnmarshalInto(&e, b); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			got[c.Rank()] = append(got[c.Rank()], string(e.Marshal()))
		}
	})
	by := w.Cluster().BytesByTag()
	return got, by["rse"] + by["ag"]
}

// allReducedChunks runs AllReduceEncoded with gatheredChunks' rng streams
// and returns the same per-rank frames, the bytes charged and every rank's
// returned cost.
func allReducedChunks(t *testing.T, encs []*grad.Encoded, rows int) ([][]string, int64, []float64) {
	t.Helper()
	p := len(encs)
	w := newWorld(p)
	got := make([][]string, p)
	costs := make([]float64, p)
	w.Run(func(c *Comm) {
		var mg grad.Merger
		frames, cost, err := c.AllReduceEncoded(encs[c.Rank()], rows, &mg, xrand.New(uint64(900+c.Rank())), "are")
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		for _, f := range frames {
			got[c.Rank()] = append(got[c.Rank()], string(f.Marshal()))
		}
		costs[c.Rank()] = cost
	})
	return got, w.Cluster().BytesByTag()["are"], costs
}

// The AllReduceEncoded contract: every rank gets the P reduced chunk frames,
// in source-rank order, byte-identical to what ReduceScatterEncoded +
// AllGatherBytes + UnmarshalInto hand it. The ledger moves exactly the
// phase-1 slices plus, per owner and destination d, the reduced chunk
// without the rows d alone held — strictly less than the two-collective
// pipeline when some row's only source is not its owner, and the same when
// none is.
func TestAllReduceEncodedMatchesGatheredChunks(t *testing.T) {
	sets := []struct {
		name string
		has  func(p int) func(rank, id int) bool
	}{
		{"disjoint", func(p int) func(rank, id int) bool {
			return func(rank, id int) bool { return id%p == rank }
		}},
		{"overlapping", func(int) func(rank, id int) bool { return overlapping }},
		{"every row merged", func(int) func(rank, id int) bool {
			return func(int, int) bool { return true }
		}},
		{"one rank empty", func(int) func(rank, id int) bool {
			return func(rank, id int) bool { return rank != 0 && (id+rank)%3 != 0 }
		}},
		{"empty", func(int) func(rank, id int) bool {
			return func(int, int) bool { return false }
		}},
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, s := range []grad.Scheme{grad.NoQuant, grad.OneBitMax, grad.OneBitAvg, grad.TwoBitTernary} {
			for _, set := range sets {
				const rows, width = 37, 6
				has := set.has(p)
				encs := make([]*grad.Encoded, p)
				for r := range encs {
					encs[r], _ = encRows(r, rows, width, s, 500, has)
				}
				want, oracle := gatheredChunks(t, encs, rows)
				got, moved, costs := allReducedChunks(t, encs, rows)
				for r := 0; r < p; r++ {
					for src := 0; src < p; src++ {
						if got[r][src] != want[r][src] {
							t.Fatalf("p=%d %v %s: rank %d's chunk from rank %d differs from the gathered chunk",
								p, s, set.name, r, src)
						}
					}
					if costs[r] != costs[0] {
						t.Fatalf("p=%d %v %s: rank %d charged %v, rank 0 %v", p, s, set.name, r, costs[r], costs[0])
					}
				}

				// The expected ledger, from the inputs alone.
				holders := func(id int) (n, only int) {
					for r := 0; r < p; r++ {
						if has(r, id) {
							n, only = n+1, r
						}
					}
					return n, only
				}
				var direct int64
				echo := false
				for o := 0; p > 1 && o < p; o++ {
					lo, hi := reducedChunk(o, rows, p)
					for src := 0; src < p; src++ {
						if src != o {
							i0, i1 := encs[src].RowRange(lo, hi)
							direct += int64(len(encs[src].AppendRangeTo(nil, i0, i1)))
						}
					}
					var merged grad.Encoded
					if err := grad.UnmarshalInto(&merged, []byte(want[0][o])); err != nil {
						t.Fatal(err)
					}
					for d := 0; d < p; d++ {
						if d == o {
							continue
						}
						var keep []int
						for i, id := range merged.Indices {
							if n, only := holders(int(id)); n == 1 && only == d {
								echo = true
								continue
							}
							keep = append(keep, i)
						}
						trimmed := grad.Encoded{Scheme: merged.Scheme, Width: width}
						per := len(merged.Bits) / max(1, len(merged.Indices))
						for _, i := range keep {
							trimmed.Indices = append(trimmed.Indices, merged.Indices[i])
							trimmed.Scales = append(trimmed.Scales, merged.Scales[i])
							trimmed.Bits = append(trimmed.Bits, merged.Bits[i*per:(i+1)*per]...)
						}
						direct += int64(trimmed.WireBytes())
					}
				}
				if moved != direct {
					t.Errorf("p=%d %v %s: ledger moved %d bytes, slices and trimmed frames total %d",
						p, s, set.name, moved, direct)
				}
				if echo && moved >= oracle || !echo && moved != oracle {
					t.Errorf("p=%d %v %s: moved %d bytes, gathered pipeline %d (echo rows present: %v)",
						p, s, set.name, moved, oracle, echo)
				}
				if par := simnet.XC40Params(); p > 1 &&
					costs[0] != 2*float64(p-1)*par.Alpha+float64(moved)/float64(p)*par.Beta {
					t.Errorf("p=%d %v %s: cost %v, want 2(P−1)·α + (total/P)·β", p, s, set.name, costs[0])
				}
			}
		}
	}
}

// At P = 2 the reduced chunks are pinned byte for byte to what the parent
// pipeline (ReduceScatterEncoded + AllGatherBytes) delivered, in source-rank
// order — one lossy scheme without and one with rng re-encoding.
func TestAllReduceEncodedPinnedP2(t *testing.T) {
	for _, tc := range []struct {
		s      grad.Scheme
		frames [2]string
	}{
		{grad.OneBitMax, [2]string{
			"01040000000500000005000000003c7b973f2d2c3440bbef543fcbedcd3f603b803f090e0e0907",
			"01040000000500000000000000003509214021ae0c4032a5c63fb65d5d40ae298a3f0d0b08030f",
		}},
		{grad.TwoBitTernary, [2]string{
			"0704000000050000000500000000ba395b3f507d9a3e9976093fe4e88a3f1846763f6985466996",
			"07040000000500000000000000002a61823faf71893f8792243fe287043f100e593f5860282155",
		}},
	} {
		const rows, width = 10, 4
		encs := make([]*grad.Encoded, 2)
		for r := range encs {
			encs[r], _ = encGrad(r, rows, width, tc.s, 700)
		}
		got, _, _ := allReducedChunks(t, encs, rows)
		for r := range got {
			for src, f := range got[r] {
				if h := hex.EncodeToString([]byte(f)); h != tc.frames[src] {
					t.Errorf("%v: rank %d's chunk from rank %d = %s, pinned %s", tc.s, r, src, h, tc.frames[src])
				}
			}
		}
	}
}

// badFrame encodes one row per id, each with a 1 in its first column.
func badFrame(s grad.Scheme, width int, ids ...int32) []byte {
	g := grad.NewSparseGrad(width)
	for _, id := range ids {
		g.Row(id)[0] = 1
	}
	return grad.Quantize(g, s, xrand.New(1)).Marshal()
}

// A hop frame is peer bytes: one that does not decode, or decodes to the
// wrong scheme, the wrong width or a row outside the chunk it stands for, is
// an error naming the sender — never a panic in the merge. At P = 3, rank 0
// runs the collective and reduces chunk 1, ids [3, 6); ranks 2 and 1
// hand-send it their slices in that order, and rank 1's is the bad one.
func TestReduceScatterEncodedRejectsBadHopFrames(t *testing.T) {
	const rows, width = 9, 4
	own, _ := encRows(0, rows, width, grad.OneBitMax, 400, func(int, int) bool { return true })
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"undecodable", []byte{1, 2, 3}},
		{"wrong scheme", badFrame(grad.TwoBitTernary, width, 4)},
		{"wrong width", badFrame(grad.OneBitMax, width+1, 4)},
		{"id below the chunk", badFrame(grad.OneBitMax, width, 2, 4)},
		{"id past the chunk", badFrame(grad.OneBitMax, width, 4, 6)},
	} {
		for _, run := range []struct {
			name string
			f    func(c *Comm) error
		}{
			{"ReduceScatterEncoded", func(c *Comm) error {
				var mg grad.Merger
				_, _, err := c.ReduceScatterEncoded(own, rows, &mg, nil, "rse")
				return err
			}},
			{"AllReduceEncoded", func(c *Comm) error {
				var mg grad.Merger
				_, _, err := c.AllReduceEncoded(own, rows, &mg, nil, "are")
				return err
			}},
		} {
			err := newWorld(3).RunErr(func(c *Comm) error {
				if c.Rank() == 0 {
					return run.f(c)
				}
				frame := badFrame(grad.OneBitMax, width, 3, 5)
				if c.Rank() == 1 {
					frame = tc.frame
				}
				return handSend(c, frame)
			})
			if err == nil || !strings.Contains(err.Error(), "corrupt compressed hop frame from rank 1") {
				t.Errorf("%s, %s: err = %v, want a corrupt hop frame naming rank 1", run.name, tc.name, err)
			}
		}
	}
}

// The return phase's trimmed frames are peer bytes too: rank 0 runs
// AllReduceEncoded at P = 3 and gets good phase-1 slices from ranks 2 and 1,
// then a good trimmed chunk 0 (ids [0, 3)) from rank 2 and a bad chunk 2
// (ids [6, 9)) from rank 1. The error names rank 1 and nothing panics.
func TestAllReduceEncodedRejectsBadChunkFrames(t *testing.T) {
	const rows, width = 9, 4
	own, _ := encRows(0, rows, width, grad.OneBitMax, 400, func(int, int) bool { return true })
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"undecodable", []byte{1, 2, 3}},
		{"wrong scheme", badFrame(grad.TwoBitTernary, width, 7)},
		{"wrong width", badFrame(grad.OneBitMax, width+1, 7)},
		{"id in another chunk", badFrame(grad.OneBitMax, width, 5, 7)},
		{"id past the table", badFrame(grad.OneBitMax, width, 7, rows)},
	} {
		err := newWorld(3).RunErr(func(c *Comm) error {
			if c.Rank() == 0 {
				var mg grad.Merger
				_, _, err := c.AllReduceEncoded(own, rows, &mg, nil, "are")
				return err
			}
			chunk := badFrame(grad.OneBitMax, width, 0, 2)
			if c.Rank() == 1 {
				chunk = tc.frame
			}
			return handSend(c, badFrame(grad.OneBitMax, width, 3, 5), chunk)
		})
		if err == nil || !strings.Contains(err.Error(), "corrupt reduced chunk frame from rank 1") {
			t.Errorf("%s: err = %v, want a corrupt reduced chunk frame naming rank 1", tc.name, err)
		}
	}
}

// handSend stands in for a peer of rank 0 in a compressed collective: per
// phase it sends rank 0 one frame and consumes the one rank 0 sends back.
func handSend(c *Comm, frames ...[]byte) error {
	for _, f := range frames {
		if err := c.send(0, message{Raw: f}); err != nil {
			return err
		}
		m, err := c.recv(0)
		if err != nil {
			return err
		}
		pool.PutBytes(m.Raw)
	}
	return nil
}
