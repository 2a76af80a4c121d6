package mpi

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/pool"
	"kgedist/internal/xrand"
)

// Compressed reduce-scatter (DESIGN.md §13.5): grad.Encoded frames —
// delta-varint row ids, per-row scales (none under NoQuant) and packed
// payloads (grad.Encoded.Marshal) — go from each rank straight to the owner
// of each chunk over the all-to-all's pairwise schedule, and the owner merges
// the P slices once in the compressed domain (grad.Merger.Merge), decoding
// only rows several ranks hold. Every row is sent once and re-quantized at
// most once — DynamiQ's owner reduction (PAPERS.md) on the paper's exchange
// — and the wire never sees a dense float32 chunk at any rung of the ladder.
//
// The companion all-gather phase needs no new collective: the reduced chunks
// are disjoint Encoded frames, and AllGatherBytes already moves opaque
// frames unchanged — still compressed.
//
// Every received slice is peer bytes: it is decoded and checked (scheme,
// width, ids inside the owner's chunk) before it reaches the merge, so a bad
// frame is an error naming the sender, never a panic.

// chunkEdge returns the first row id of chunk i when rows ids are split into
// p contiguous chunks (chunk i covers ids [edge(i), edge(i+1))), matching
// the dense ring's arithmetic chunking.
func chunkEdge(i, rows, p int) int32 { return int32(i * rows / p) }

// ReducedChunk returns the row-id window [lo, hi) of the chunk
// ReduceScatterEncoded leaves fully reduced on rank r of p: chunk
// (r+1) mod p, as in the dense ring. A receiver of that chunk checks the
// sender's frame against it.
func ReducedChunk(r, rows, p int) (lo, hi int32) {
	own := (r + 1) % p
	return chunkEdge(own, rows, p), chunkEdge(own+1, rows, p)
}

// hopFrameError reports a hop frame from rank src that failed to decode or
// does not fit the chunk it stands for.
//
//kgelint:coldpath error path: a peer sent a malformed frame
func hopFrameError(src int, err error) error {
	return fmt.Errorf("mpi: corrupt compressed hop frame from rank %d: %w", src, err)
}

// ReduceScatterEncoded sums the ranks' encoded sparse gradients and returns
// this rank's fully reduced chunk: the merged frame over row ids
// [c*rows/p, (c+1)*rows/p), c = (rank+1) mod p as in the dense ring. Each
// rank sends its slice of chunk d straight to d's owner, rank (d−1) mod p,
// and the owner folds the p slices with mg.Merge in ring source order
// c, c+1, …, c+p−1 (its own slice last). All ranks must pass frames with the
// same scheme, width and rows; a slice that does not match own's scheme and
// width, or names an id outside the chunk, is returned as an error naming
// the sending rank. rng is consumed by TwoBitTernary re-encoding only and
// must be a stream dedicated to this pipeline.
//
// own is only read. The returned frame aliases mg-owned storage (or own
// itself when p = 1) and is valid until the next call using mg. The charged
// volume is the sum of the slices' frame sizes (see pairwise). Returns the
// virtual cost.
//
//kgelint:hotpath
func (c *Comm) ReduceScatterEncoded(own *grad.Encoded, rows int, mg *grad.Merger, rng *xrand.RNG, tag string) (*grad.Encoded, float64, error) {
	if err := c.enter(); err != nil {
		return nil, 0, err
	}
	p := c.w.p
	if p == 1 {
		if err := c.finish(0, 0, 0, tag); err != nil {
			return nil, 0, err
		}
		return own, 0, nil
	}
	first := (c.rank + 1) % p // this rank's chunk, and the first source it folds
	lo, hi := ReducedChunk(c.rank, rows, p)
	mg.Reserve(p)
	i0, i1 := own.RowRange(lo, hi)
	own.Range(i0, i1, &mg.View)
	mg.Src[p-1] = &mg.View
	cost, err := c.pairwise(func(dst int) (int, error) {
		// dst owns chunk dst+1. The staging copy rides the pool: the single
		// receiver consumes and puts it (DESIGN.md §10).
		d0, d1 := ReducedChunk(dst, rows, p)
		i0, i1 := own.RowRange(d0, d1)
		mg.Wire = own.AppendRangeTo(mg.Wire[:0], i0, i1)
		out := pool.GetBytes(len(mg.Wire))
		copy(out, mg.Wire)
		return len(mg.Wire), c.send(dst, message{Raw: out})
	}, func(src int, m message) error {
		j := (src - first + p) % p
		f := &mg.In[j]
		err := grad.UnmarshalInto(f, m.Raw)
		pool.PutBytes(m.Raw)
		if err == nil {
			err = f.Check(own.Scheme, own.Width, lo, hi)
		}
		if err != nil {
			return hopFrameError(src, err)
		}
		mg.Src[j] = f
		return nil
	}, tag)
	if err != nil {
		return nil, 0, err
	}
	return mg.Merge(mg.Src, rng), cost, nil
}
