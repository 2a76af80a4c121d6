package mpi

import (
	"fmt"

	"kgedist/internal/grad"
	"kgedist/internal/pool"
	"kgedist/internal/xrand"
)

// Compressed-hop collective (DESIGN.md §13): the ring reduce-scatter carries
// grad.Encoded frames natively — delta-varint row ids, per-row scales (none
// under NoQuant) and packed payloads ride the wire hop to hop
// (grad.Encoded.Marshal), and each hop merges in the compressed domain
// (grad.Merger), decoding only overlapping rows. This is the DynamiQ idea
// (PAPERS.md) grafted onto the paper's exchange: compression applies per hop
// inside the collective instead of end-to-end around it, so the wire never
// sees a dense float32 chunk at any rung of the compression ladder.
//
// The companion all-gather phase needs no new collective: the reduced chunks
// are disjoint Encoded frames, and AllGatherBytes already moves opaque
// frames unchanged — still compressed.
//
// Every hop frame is peer bytes: it is decoded and checked (scheme, width,
// ids inside the chunk it stands for) before it reaches the merge, so a bad
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
// [own*rows/p, (own+1)*rows/p), own = (rank+1) mod p as in the dense ring.
// All ranks must pass frames with the same scheme, width and rows; a hop
// frame that does not match own's scheme and width, or names an id outside
// its chunk, is returned as an error naming the sending rank. Frames
// stay compressed on the wire and through every pass-through merge; only
// row overlaps decode (see grad.Merger). rng is consumed by TwoBitTernary
// re-encoding only and must be a stream dedicated to this pipeline.
//
// own is only read. The returned frame aliases mg-owned storage (or own
// itself when p = 1) and is valid until the next call using mg. Wire frame
// sizes are data-dependent, so the ranks agree on the charged cost by
// summing their sent bytes with a composed scalar reduction before the
// rendezvous — the Gather/Scatter pattern. Returns the virtual cost.
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
	r := c.rank
	right := (r + 1) % p
	left := (r - 1 + p) % p
	var sentBytes float64
	cur := own
	for s := 0; s < p-1; s++ {
		sendIdx := ((r-s)%p + p) % p
		recvIdx := ((r-s-1)%p + p) % p
		// Stage the outgoing frame: at step 0 this rank's slice of chunk
		// sendIdx; afterwards the previous step's merge result, which is by
		// construction the partial reduction of exactly that chunk. The
		// staging copy rides the pool (single receiver consumes and puts,
		// DESIGN.md §10).
		if s == 0 {
			i0, i1 := own.RowRange(chunkEdge(sendIdx, rows, p), chunkEdge(sendIdx+1, rows, p))
			mg.Wire = own.AppendRangeTo(mg.Wire[:0], i0, i1)
		} else {
			mg.Wire = cur.AppendTo(mg.Wire[:0])
		}
		out := pool.GetBytes(len(mg.Wire))
		copy(out, mg.Wire)
		sentBytes += float64(len(out))
		if err := c.send(right, message{Raw: out}); err != nil {
			return nil, 0, err
		}
		m, err := c.recv(left)
		if err != nil {
			return nil, 0, err
		}
		err = grad.UnmarshalInto(&mg.In, m.Raw)
		pool.PutBytes(m.Raw)
		lo, hi := chunkEdge(recvIdx, rows, p), chunkEdge(recvIdx+1, rows, p)
		if err == nil {
			err = mg.In.Check(own.Scheme, own.Width, lo, hi)
		}
		if err != nil {
			return nil, 0, hopFrameError(left, err)
		}
		i0, i1 := own.RowRange(lo, hi)
		own.Range(i0, i1, &mg.View)
		cur = mg.MergeInto(&mg.In, &mg.View, rng)
	}
	// Frame sizes differ per rank and hop; agree on the volume (and thus the
	// charged cost) with a scalar sum before the rendezvous.
	total, err := c.AllReduceScalar(sentBytes, OpSum)
	if err != nil {
		return nil, 0, err
	}
	par := c.w.cluster.Params()
	steps := int64(p - 1)
	cost := float64(steps)*par.Alpha + (total/float64(p))*par.Beta
	if err := c.finish(cost, int64(total), steps*int64(p), tag); err != nil {
		return nil, 0, err
	}
	return cur, cost, nil
}
