package binpack

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzBinpackRoundTrip drives pack -> score -> unpack over arbitrary
// widths (including width % 64 != 0 tails) and arbitrary float payloads
// (the byte stream is reinterpreted as float32 bits, so NaN/Inf/denormals
// all occur): nothing may panic, the unrolled kernel must match the
// bit-by-bit Hamming reference, tail bits must stay clear, and
// unpack -> repack must reproduce the code exactly.
func FuzzBinpackRoundTrip(f *testing.F) {
	f.Add(uint16(1), []byte{0x00})
	f.Add(uint16(64), []byte{0x3f, 0x80, 0x00, 0x00, 0xbf, 0x80, 0x00, 0x00})
	f.Add(uint16(65), []byte{0x7f, 0xc0, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0xff})
	f.Add(uint16(130), []byte{0x7f, 0x80, 0x00, 0x00, 0xff, 0x80, 0x00, 0x00, 0x80, 0x00, 0x00, 0x01})
	f.Add(uint16(517), []byte("binarized knowledge graph embeddings"))
	f.Fuzz(func(t *testing.T, w uint16, data []byte) {
		width := int(w)%517 + 1
		at := func(i int) float32 {
			if len(data) == 0 {
				return 0
			}
			var b [4]byte
			for j := 0; j < 4; j++ {
				b[j] = data[(4*i+j)%len(data)]
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
		}
		rowA := make([]float32, width)
		rowB := make([]float32, width)
		thr := make([]float32, width)
		for d := 0; d < width; d++ {
			rowA[d] = at(d)
			rowB[d] = at(d + width)
			thr[d] = at(d + 2*width)
		}
		words := (width + WordBits - 1) / WordBits
		codeA := make([]uint64, words)
		codeB := make([]uint64, words)
		packInto(rowA, thr, codeA)
		packInto(rowB, thr, codeB)

		// Tail-word masking: bits beyond width are never set.
		for b := width; b < words*WordBits; b++ {
			if codeA[b/WordBits]&(1<<(uint(b)%WordBits)) != 0 || codeB[b/WordBits]&(1<<(uint(b)%WordBits)) != 0 {
				t.Fatalf("width %d: tail bit %d set", width, b)
			}
		}

		// Kernel vs bit-by-bit reference, both directions.
		var out [1]int32
		Kernel().HammingBlock(codeA, codeB, words, out[:])
		if want := hammingRef(codeA, codeB, words); out[0] != want {
			t.Fatalf("width %d: kernel %d, reference %d", width, out[0], want)
		}
		if out[0] > int32(width) {
			t.Fatalf("width %d: distance %d exceeds width", width, out[0])
		}

		// Unpack -> repack must be the identity on codes.
		ix := &Index{width: width, words: words}
		bits := ix.Unpack(codeA, make([]bool, width))
		recode := make([]uint64, words)
		for d, set := range bits {
			if set {
				recode[d/WordBits] |= 1 << (uint(d) % WordBits)
			}
		}
		for wd := 0; wd < words; wd++ {
			if recode[wd] != codeA[wd] {
				t.Fatalf("width %d: unpack/repack word %d = %#x, want %#x", width, wd, recode[wd], codeA[wd])
			}
		}
		// packInto must agree with the scalar comparison even for NaN
		// thresholds (NaN compares false, so the bit is clear).
		for d := 0; d < width; d++ {
			got := codeA[d/WordBits]&(1<<(uint(d)%WordBits)) != 0
			if got != (rowA[d] > thr[d]) {
				t.Fatalf("width %d: bit %d = %v for value %g threshold %g", width, d, got, rowA[d], thr[d])
			}
		}
	})
}

// FuzzPrefilterSelect drives stage 1's counting select over arbitrary
// widths, table sizes, budgets and code payloads (the byte stream is
// cycled into the query and entity words, so short inputs make heavy
// distance ties): the kept ids must be exactly the brute-force
// (distance asc, id asc) top-c, in ascending id order.
func FuzzPrefilterSelect(f *testing.F) {
	f.Add(uint16(16), uint16(40), uint16(10), []byte{0x0f, 0xf0, 0x3c})
	f.Add(uint16(64), uint16(300), uint16(299), []byte("binarized knowledge graph embeddings"))
	f.Add(uint16(130), uint16(97), uint16(96), []byte{0xff, 0x00, 0xaa, 0x55, 0x01})
	f.Add(uint16(517), uint16(33), uint16(5), []byte{})
	f.Fuzz(func(t *testing.T, w, n, c uint16, data []byte) {
		width := int(w)%517 + 1
		words := (width + WordBits - 1) / WordBits
		rows := int(n)%300 + 1
		budget := int(c)%rows + 1
		word := func(i int) uint64 {
			if len(data) == 0 {
				return 0
			}
			var b [8]byte
			for j := range b {
				b[j] = data[(8*i+j)%len(data)]
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		q := make([]uint64, words)
		codes := make([]uint64, rows*words)
		for i := range q {
			q[i] = word(i)
		}
		for i := range codes {
			codes[i] = word(words + i)
		}
		ix := &Index{rows: rows, width: width, words: words, codes: codes}
		cand := make([]int32, budget)
		ix.prefilterInto(q, make([]int32, rows), make([]int, words*WordBits+1), cand)
		if want := bruteTopC(q, codes, words, budget); !slices.Equal(cand, want) {
			t.Fatalf("width %d rows %d c %d: stage 1 kept %v, brute force %v", width, rows, budget, cand, want)
		}
	})
}
