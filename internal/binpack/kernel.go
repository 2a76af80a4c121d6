package binpack

import "math/bits"

// ScorePacked is the narrow kernel interface of the packed sweep: given a
// query code and a contiguous block of candidate codes, fill out with the
// Hamming distances. Keeping the interface this small is deliberate — an
// AVX2 VPOPCNTQ or NEON CNT assembly kernel can slot in behind it without
// touching the prefilter, the same shape the training kernels use for
// their future SIMD paths (ROADMAP item 4).
type ScorePacked interface {
	// HammingBlock computes, for each of the len(out) candidate codes laid
	// out back to back in codes (words uint64 each), the Hamming distance
	// to q (words long), writing distances into out. codes must hold at
	// least len(out)*words words.
	HammingBlock(q, codes []uint64, words int, out []int32)
}

// Kernel returns the active packed-scoring kernel for this platform.
// Currently always the portable math/bits implementation; an asm kernel
// would be selected here behind a build tag.
func Kernel() ScorePacked { return portableKernel{} }

// portableKernel is the pure-Go popcount kernel: XOR + OnesCount64,
// 8-word unrolled, with a loop of its own for one-word codes. OnesCount64
// compiles to the POPCNT instruction on amd64 and CNT on arm64, so
// "portable" costs one instruction per word, not a bit loop.
type portableKernel struct{}

// HammingBlock implements ScorePacked.
func (portableKernel) HammingBlock(q, codes []uint64, words int, out []int32) {
	if words == 1 {
		// One code per word (dim <= 64): no per-row reslice, and the
		// bounds checks hoist out of the loop.
		q0 := q[0]
		codes = codes[:len(out)]
		for i, c := range codes {
			out[i] = int32(bits.OnesCount64(c ^ q0))
		}
		return
	}
	for i := range out {
		row := codes[i*words : i*words+words]
		var acc int
		j := 0
		// 8-word unrolled body: one bounds check per stride, and the
		// independent popcounts pipeline across the XORs.
		for ; j+8 <= words; j += 8 {
			c := row[j : j+8 : j+8]
			s := q[j : j+8 : j+8]
			acc += bits.OnesCount64(c[0]^s[0]) +
				bits.OnesCount64(c[1]^s[1]) +
				bits.OnesCount64(c[2]^s[2]) +
				bits.OnesCount64(c[3]^s[3]) +
				bits.OnesCount64(c[4]^s[4]) +
				bits.OnesCount64(c[5]^s[5]) +
				bits.OnesCount64(c[6]^s[6]) +
				bits.OnesCount64(c[7]^s[7])
		}
		for ; j < words; j++ {
			acc += bits.OnesCount64(row[j] ^ q[j])
		}
		out[i] = int32(acc)
	}
}

// hammingRef is the bit-by-bit reference the fuzz round-trip checks the
// kernel against: no packing tricks, no unrolling.
func hammingRef(a, b []uint64, words int) int32 {
	var n int32
	for w := 0; w < words; w++ {
		x := a[w] ^ b[w]
		for x != 0 {
			n += int32(x & 1)
			x >>= 1
		}
	}
	return n
}
