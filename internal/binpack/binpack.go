// Package binpack implements binarized candidate generation for serving:
// 1-bit codes of embedding rows packed into uint64 words, scored with
// XOR/popcount Hamming kernels, as in Kishimoto et al., "Binarized
// Knowledge Graph Embeddings". The full-precision store stays the source
// of truth — binpack only *prefilters*: a packed sweep over all entities
// selects a candidate slice whose exact scores are then recomputed, so the
// served ranking is always expressed in true model scores and the only
// approximation is which candidates make the slice (guarded by the
// recall gate in internal/testkit).
//
// An Index is immutable after Build and safe for unlimited concurrent
// readers; serving swaps it together with its Store as one generation.
package binpack

import "kgedist/internal/model"

// WordBits is the packing grain: one uint64 word holds 64 dimension bits.
const WordBits = 64

// Index is the packed 1-bit sketch of one checkpoint's entity table.
//
// Packed layout: entity e's code occupies words [e*Words, (e+1)*Words) of
// codes. Bit j of word w is dimension w*64+j (little-endian bit order
// within a word). Dimensions beyond the width — the tail of the
// last word when width % 64 != 0 — are always zero in every code,
// including query codes, so they can never contribute to a XOR/popcount
// and need no masking on the scoring path.
type Index struct {
	rows  int
	width int // float dimensions binarized per row: the model's Width
	words int // uint64 words per row: ceil(width/64)

	codes []uint64  // rows * words, row-major
	thr   []float32 // per-dimension binarization thresholds, len width

	comp composer // model-specific query composition
	name string   // model name the index was built for
}

// Build binarizes an entity table into a packed index. row(e) must return
// entity e's embedding row (at least m.Width() floats wide) and be
// safe to call repeatedly; Build reads every row twice (threshold pass,
// pack pass) and copies nothing out of them.
//
// The binarization rule is per-dimension thresholding: bit d of entity e
// is set iff row(e)[d] > thr[d], with thr[d] the mean of dimension d over
// all entities. Centering on the mean (rather than raw sign) keeps the
// code informative when a dimension drifts off zero during training.
func Build(m model.Model, rows int, row func(e int) []float32) (*Index, error) {
	comp, err := composerFor(m)
	if err != nil {
		return nil, err
	}
	width := m.Width()
	words := (width + WordBits - 1) / WordBits
	ix := &Index{
		rows:  rows,
		width: width,
		words: words,
		codes: make([]uint64, rows*words),
		thr:   make([]float32, width),
		comp:  comp,
		name:  m.Name(),
	}
	if rows == 0 {
		return ix, nil
	}
	// Pass 1: per-dimension means become the thresholds. Accumulate in
	// float64 so the threshold does not drift with entity count.
	sums := make([]float64, width)
	for e := 0; e < rows; e++ {
		r := row(e)
		for d := 0; d < width; d++ {
			sums[d] += float64(r[d])
		}
	}
	for d := range sums {
		ix.thr[d] = float32(sums[d] / float64(rows))
	}
	// Pass 2: pack every row against the thresholds.
	for e := 0; e < rows; e++ {
		packInto(row(e)[:width], ix.thr, ix.codes[e*words:(e+1)*words])
	}
	return ix, nil
}

// BuildFromParams is Build over a loaded Params — the checkpoint read path
// testkit and the load generator share with serving.
func BuildFromParams(m model.Model, p *model.Params) (*Index, error) {
	return Build(m, p.Entity.Rows, p.Entity.Row)
}

// Rows returns the number of entity codes in the index.
func (ix *Index) Rows() int { return ix.rows }

// Width returns the number of binarized dimensions per row.
func (ix *Index) Width() int { return ix.width }

// Words returns the packed words per row.
func (ix *Index) Words() int { return ix.words }

// ModelName returns the model the index was built for.
func (ix *Index) ModelName() string { return ix.name }

// Thresholds returns the per-dimension binarization thresholds (read-only).
func (ix *Index) Thresholds() []float32 { return ix.thr }

// Code returns entity e's packed code (read-only view into the index).
func (ix *Index) Code(e int) []uint64 {
	return ix.codes[e*ix.words : (e+1)*ix.words]
}

// Bytes returns the packed size of the index payload in bytes.
func (ix *Index) Bytes() int { return len(ix.codes) * 8 }

// packInto writes the 1-bit code of row (len == len(thr)) into dst, which
// must be ceil(len(thr)/64) words. Tail bits beyond the width stay zero.
func packInto(row, thr []float32, dst []uint64) {
	for w := range dst {
		dst[w] = 0
	}
	for d, v := range row {
		if v > thr[d] {
			dst[d/WordBits] |= 1 << (uint(d) % WordBits)
		}
	}
}

// Unpack expands a packed code into dst (one bool per dimension, len
// ix.Width()) and returns it. The bit-by-bit inverse of packInto, used by
// tests and the fuzz round-trip.
func (ix *Index) Unpack(code []uint64, dst []bool) []bool {
	for d := 0; d < ix.width; d++ {
		dst[d] = code[d/WordBits]&(1<<(uint(d)%WordBits)) != 0
	}
	return dst
}
