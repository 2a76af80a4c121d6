package mpi

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/pool"
	"kgedist/internal/xrand"
)

// Compressed all-reduce (DESIGN.md §13.5): grad.Encoded frames — delta-varint
// row ids, per-row scales (none under NoQuant) and packed payloads
// (grad.Encoded.Marshal) — go from each rank straight to the owner of each
// chunk over the all-to-all's pairwise schedule, and the owner merges the P
// slices once in the compressed domain (grad.Merger.Merge), decoding only
// rows several ranks hold. Every row is sent once and re-quantized at most
// once — DynamiQ's owner reduction (PAPERS.md) on the paper's exchange — and
// the wire never sees a dense float32 chunk at any rung of the ladder.
//
// The return phase runs the same schedule backwards: the owner sends each
// rank its reduced chunk minus the rows that rank alone contributed. The
// merge passed those rows through verbatim, so the receiver already holds
// their exact bytes and puts them back from its own slice
// (grad.RebuildInto). No rank is sent an echo of its own rows.
//
// Every received frame is peer bytes: it is decoded and checked (scheme,
// width, ids inside the chunk it stands for) before it reaches the merge or
// the rebuild, so a bad frame is an error naming the sender, never a panic.

// chunkEdge returns the first row id of chunk i when rows ids are split into
// p contiguous chunks (chunk i covers ids [edge(i), edge(i+1))), matching
// the dense ring's arithmetic chunking.
func chunkEdge(i, rows, p int) int32 { return int32(i * rows / p) }

// reducedChunk returns the row-id window [lo, hi) of the chunk rank r of p
// reduces: chunk (r+1) mod p, as in the dense ring. A receiver of that
// chunk checks the sender's frame against it.
func reducedChunk(r, rows, p int) (lo, hi int32) {
	own := (r + 1) % p
	return chunkEdge(own, rows, p), chunkEdge(own+1, rows, p)
}

// hopFrameError reports a hop frame from rank src that failed to decode or
// does not fit the chunk it stands for.
func hopFrameError(src int, err error) error {
	return fmt.Errorf("mpi: corrupt compressed hop frame from rank %d: %w", src, err)
}

// chunkFrameError reports a trimmed reduced-chunk frame from rank src that
// failed to decode or does not fit the chunk src reduced.
func chunkFrameError(src int, err error) error {
	return fmt.Errorf("mpi: corrupt reduced chunk frame from rank %d: %w", src, err)
}

// ReduceScatterEncoded sums the ranks' encoded sparse gradients and returns
// this rank's fully reduced chunk: the merged frame over row ids
// [c*rows/p, (c+1)*rows/p), c = (rank+1) mod p as in the dense ring. It is
// the first phase of AllReduceEncoded, charged on its own. All ranks must
// pass frames with the same scheme, width and rows; a slice that does not
// match own's scheme and width, or names an id outside the chunk, is
// returned as an error naming the sending rank. rng is consumed by
// TwoBitTernary re-encoding only and must be a stream dedicated to this
// pipeline.
//
// own is only read. The returned frame aliases mg-owned storage (or own
// itself when p = 1) and is valid until the next call using mg. The charged
// volume is the sum of the slices' frame sizes (see chargeRounds). Returns
// the virtual cost.
func (c *Comm) ReduceScatterEncoded(own *grad.Encoded, rows int, mg *grad.Merger, rng *xrand.RNG, tag string) (*grad.Encoded, float64, error) {
	if err := c.enter(); err != nil {
		return nil, 0, err
	}
	if c.w.p == 1 {
		if err := c.finish(0, 0, 0, tag); err != nil {
			return nil, 0, err
		}
		return own, 0, nil
	}
	chunk, sent, err := c.reduceOwned(own, rows, mg, rng)
	if err != nil {
		return nil, 0, err
	}
	cost, err := c.chargeRounds(1, sent, tag)
	if err != nil {
		return nil, 0, err
	}
	return chunk, cost, nil
}

// AllReduceEncoded sums the ranks' encoded sparse gradients and returns every
// rank's reduced chunk, indexed by the rank that reduced it: frames[r] is the
// merged frame over chunk (r+1) mod p — byte for byte what
// ReduceScatterEncoded leaves on rank r. Phase 1 is ReduceScatterEncoded's
// owner merge. In phase 2 each owner sends every rank d its chunk without
// the rows whose only source was d, and d rebuilds the full chunk from that
// trimmed frame and its own slice (grad.RebuildInto). The frame contract,
// the error naming and rng follow ReduceScatterEncoded; a trimmed frame that
// does not decode, or does not match own's scheme and width and the
// sender's chunk, is an error naming the sender.
//
// own is only read. The returned frames alias mg-owned storage (and own's
// when p = 1) and are valid until the next call using mg. One agreement
// covers both phases: the charged volume is the phase-1 slices plus the
// trimmed frames, at 2(P−1)·α + (total/P)·β. Returns the virtual cost.
func (c *Comm) AllReduceEncoded(own *grad.Encoded, rows int, mg *grad.Merger, rng *xrand.RNG, tag string) ([]*grad.Encoded, float64, error) {
	if err := c.enter(); err != nil {
		return nil, 0, err
	}
	p := c.w.p
	if p == 1 {
		if err := c.finish(0, 0, 0, tag); err != nil {
			return nil, 0, err
		}
		mg.Reserve(1)
		own.Range(0, len(own.Indices), &mg.View)
		mg.Src[0] = &mg.View
		return mg.Src, 0, nil
	}
	chunk, sent, err := c.reduceOwned(own, rows, mg, rng)
	if err != nil {
		return nil, 0, err
	}
	// The fold positions are free once merged: Src is re-indexed by the
	// reducing rank, and In holds the rebuilt chunks.
	first := (c.rank + 1) % p
	mg.Src[c.rank] = chunk
	back, err := c.rounds(func(dst int) (int, error) {
		// dst's slice was folded at position (dst − first) mod p.
		mg.Wire = mg.AppendTrimmedTo(mg.Wire[:0], (dst-first+p)%p)
		out := pool.GetBytes(len(mg.Wire))
		copy(out, mg.Wire)
		return len(mg.Wire), c.send(dst, message{Raw: out, Pooled: true})
	}, func(src int, m message) error {
		lo, hi := reducedChunk(src, rows, p)
		err := grad.UnmarshalInto(&mg.Trim, m.Raw)
		pool.PutBytes(m.Raw)
		if err == nil {
			err = mg.Trim.Check(own.Scheme, own.Width, lo, hi)
		}
		if err != nil {
			return chunkFrameError(src, err)
		}
		i0, i1 := own.RowRange(lo, hi)
		own.Range(i0, i1, &mg.View)
		grad.RebuildInto(&mg.In[src], &mg.Trim, &mg.View)
		mg.Src[src] = &mg.In[src]
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	cost, err := c.chargeRounds(2, sent+back, tag)
	if err != nil {
		return nil, 0, err
	}
	return mg.Src, cost, nil
}

// reduceOwned runs the owner merge for p > 1: each rank sends its slice of
// chunk d straight to d's owner, rank (d−1) mod p, and folds the p slices of
// its own chunk with mg.Merge in ring source order c, c+1, …, c+p−1 (its own
// slice last). Returns the merged chunk and the bytes this rank sent; the
// caller charges.
func (c *Comm) reduceOwned(own *grad.Encoded, rows int, mg *grad.Merger, rng *xrand.RNG) (*grad.Encoded, int64, error) {
	p := c.w.p
	first := (c.rank + 1) % p // this rank's chunk, and the first source it folds
	lo, hi := reducedChunk(c.rank, rows, p)
	mg.Reserve(p)
	i0, i1 := own.RowRange(lo, hi)
	own.Range(i0, i1, &mg.View)
	mg.Src[p-1] = &mg.View
	sent, err := c.rounds(func(dst int) (int, error) {
		// dst owns chunk dst+1. The staging copy rides the pool, marked
		// Pooled: its last reader puts it (DESIGN.md §10).
		d0, d1 := reducedChunk(dst, rows, p)
		i0, i1 := own.RowRange(d0, d1)
		mg.Wire = own.AppendRangeTo(mg.Wire[:0], i0, i1)
		out := pool.GetBytes(len(mg.Wire))
		copy(out, mg.Wire)
		return len(mg.Wire), c.send(dst, message{Raw: out, Pooled: true})
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
	})
	if err != nil {
		return nil, 0, err
	}
	return mg.Merge(mg.Src, rng), sent, nil
}
