// Package xrand provides a deterministic, splittable pseudo-random number
// generator used throughout kgedist.
//
// Reproducibility across distributed ranks is essential for the paper's
// experiments: every rank must derive an independent stream from a single
// run seed so that results are identical no matter how goroutines are
// scheduled. xrand implements xoshiro256** (Blackman & Vigna) seeded via
// SplitMix64, with a Split method that derives statistically independent
// child generators.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
	splitKey       uint64 // fixed at construction; keys Split children
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, per the xoshiro authors' recommendation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	r.splitKey = splitMix64(&sm)
	return r
}

// Split derives an independent child generator keyed by id. The parent's
// state is not advanced, so Split(i) is stable regardless of interleaving
// with draws from the parent.
func (r *RNG) Split(id uint64) *RNG {
	// Mix the construction-time key with the id through SplitMix64 so
	// children with adjacent ids are decorrelated and Split(i) is stable.
	sm := r.splitKey ^ (0x9e3779b97f4a7c15 * (id + 1))
	c := &RNG{}
	c.s0 = splitMix64(&sm)
	c.s1 = splitMix64(&sm)
	c.s2 = splitMix64(&sm)
	c.s3 = splitMix64(&sm)
	c.splitKey = splitMix64(&sm)
	return c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bit patterns BernoulliMask reads its predicates off: 1.0, +Inf, and the
// sign bit of a float64.
const (
	oneBits  = 0x3FF0000000000000
	infBits  = 0x7FF0000000000000
	signBits = 1 << 63
)

// BernoulliMask makes len(p) Bernoulli draws at once: bit k of the result is
// what the k-th of the sequential calls Bernoulli(p[0]), ..., Bernoulli(p[n-1])
// would return, and the generator is left exactly where those calls leave
// it. It panics if len(p) > 64.
//
// Every p is classified without a branch on its value, so coin flips cost
// no mispredictions: Bernoulli draws iff 0 < p < 1 or p is NaN, and a NaN
// never hits. The drawing positions are compacted first; the xoshiro chain
// then runs over them in registers. A uniform in [0, 1) and a p in (0, 1)
// are both non-negative, so u < p is the unsigned comparison of their bits,
// against a threshold of 0 for a NaN.
func (r *RNG) BernoulliMask(p []float64) uint64 {
	if len(p) > 64 {
		panic("xrand: BernoulliMask over more than 64 probabilities")
	}
	var (
		pos  [64]uint8 // positions that draw, in order
		mask uint64
		n    int
	)
	for k, x := range p {
		b := math.Float64bits(x)
		_, inUnit := bits.Sub64(b-1, oneBits-1, 0)             // 0 < p < 1
		_, nan := bits.Sub64(infBits, b&^signBits, 0)          // p is NaN
		_, sure := bits.Sub64(b-oneBits, infBits-oneBits+1, 0) // 1 <= p <= +Inf
		mask |= sure << uint(k)
		pos[n&63] = uint8(k)
		n += int(inUnit | nan)
	}
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for _, k := range pos[:n] {
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		// Float64's uniform; result>>11 < 2⁵³ converts exactly as signed.
		u := math.Float64bits(float64(int64(result>>11)) * (1.0 / (1 << 53)))
		b := math.Float64bits(p[k])
		_, inUnit := bits.Sub64(b-1, oneBits-1, 0)
		_, hit := bits.Sub64(u, b&-inUnit, 0)
		mask |= hit << (k & 63)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return mask
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n) as a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs an in-place Fisher–Yates shuffle.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [0, n) with a Zipf(s) distribution over ranks
// (rank 0 is the most frequent). It uses precomputed cumulative weights,
// so construct once and reuse for many draws.
type Zipf struct {
	cum []float64 // cumulative normalized weights, len n
	rng *RNG
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum, rng: rng}
}

// Draw returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cum) }
