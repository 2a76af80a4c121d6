package grad

import "math"

// Adaptive compression controller (DESIGN.md §13): the dynamic generalization
// of the paper's static quantization flag. The controller watches per-epoch
// gradient statistics — mean row norm, row-norm variance, and a cheap entropy
// estimate over quantization buckets (the EDGC signal; PAPERS.md) — and walks
// a monotone compression ladder
//
//	fp32 → 2-bit ternary → 1-bit sign → 1-bit sign + RS row sparsification
//
// stepping one rung at the end of an epoch when the entropy says the gradient
// distribution has concentrated enough that a coarser code loses little. Error
// feedback (Residual) picks up what the coarser rungs drop, so late-training
// aggression does not stall convergence.
//
// Every rank feeds the controller its own local gradients; at the epoch
// boundary the raw accumulators are summed across ranks (a tiny dense
// all-reduce, see core's advanceCompression) and every rank evaluates the
// identical decision rule on the identical totals — the ladder trajectory is
// therefore globally agreed without a designated coordinator, and replicas
// can never disagree about the wire format of the next epoch's collectives.

// Level is a rung of the compression ladder, ordered from no compression to
// most aggressive. The ladder is strictly monotone: the controller only ever
// ascends (like the DRS switch of §4.1, the decision is permanent), which
// keeps the error-feedback residual invariant simple — residual rows only
// ever face an equal-or-coarser code than the one that produced them
// (DESIGN.md §13).
type Level int

// The ladder rungs, in ascent order (DESIGN.md §13).
const (
	// LevelFP32 transmits full-precision rows (exact compressed-domain
	// reduction; the residual stays empty).
	LevelFP32 Level = iota
	// Level2Bit uses TwoBitTernary (TernGrad with mean scale, §4.3).
	Level2Bit
	// Level1Bit uses OneBitMax, the paper's winning scheme (§4.3).
	Level1Bit
	// Level1BitRS adds Bernoulli row selection (§4.2) on top of OneBitMax;
	// dropped rows are banked whole into the residual (SelectEF).
	Level1BitRS
)

// maxLevel is the top of the ladder.
const maxLevel = Level1BitRS

// String returns the rung's name as recorded in EpochStats and the goldens.
func (l Level) String() string {
	switch l {
	case LevelFP32:
		return "fp32"
	case Level2Bit:
		return "2bit"
	case Level1Bit:
		return "1bit"
	case Level1BitRS:
		return "1bit+rs"
	}
	return "unknown"
}

// Scheme returns the quantization scheme the rung puts on the wire.
func (l Level) Scheme() Scheme {
	switch l {
	case LevelFP32:
		return NoQuant
	case Level2Bit:
		return TwoBitTernary
	default:
		return OneBitMax
	}
}

// Sparsify reports whether the rung row-sparsifies before quantizing.
func (l Level) Sparsify() bool { return l == Level1BitRS }

// Lossy reports whether the rung needs error feedback (everything above
// fp32).
func (l Level) Lossy() bool { return l > LevelFP32 }

// Entropy estimator parameters (DESIGN.md §13). The estimator histograms
// |v| into EntropyBuckets magnitude buckets of entropyExpPerBucket binary
// orders each, anchored at 2^entropyExpFloor: bucket 0 collects everything
// at or below 2^-24 (including exact zeros), the top bucket everything from
// 2^6 up. Normalized Shannon entropy over the bucket masses is the
// controller's concentration signal: as training converges, gradient
// magnitudes collapse into ever fewer buckets and the entropy falls.
const (
	// EntropyBuckets is B, the histogram size. Normalized entropy divides
	// by log2(B) so thresholds live in [0, 1] (DESIGN.md §13).
	EntropyBuckets = 16
	// entropyExpFloor is the biased float32 exponent of the bottom bucket
	// edge: 127-24, i.e. |v| = 2^-24 (DESIGN.md §13).
	entropyExpFloor = 103
	// entropyExpPerBucket is the binary orders of magnitude per bucket;
	// 2 per bucket x 16 buckets spans |v| in [2^-24, 2^6) (DESIGN.md §13).
	entropyExpPerBucket = 2
	// ObserveStride subsamples every 4th value of each row into the
	// histogram — the "cheap" in cheap entropy estimate. The property check
	// CheckEntropyEstimator (testkit) bounds the strided estimate against
	// the exact stride-1 histogram (DESIGN.md §13).
	ObserveStride = 4
)

// Decision rule constants (DESIGN.md §13). stepThreshold[k] is the
// normalized-entropy bar below which rung k-1 qualifies to step to k; the
// controller steps after the bar has held for hold consecutive epochs
// (hysteresis) and never before warmup epochs have completed. The thresholds
// were calibrated on the testkit golden dataset (see EXPERIMENTS.md,
// adaptive-compression sweep), whose early-training normalized entropy sits
// in the 0.45–0.48 band: the quantization bars sit a few hundredths apart
// inside it so those rungs ascend one per hold window while the signal stays
// low, and the ladder parks wherever entropy rises back above the next bar.
// The sparsification bar sits below the band: RS discards whole rows, so it
// is reserved for gradients whose magnitude spectrum has genuinely collapsed
// (near-converged training), not merely dipped.
var stepThreshold = [maxLevel + 1]float64{
	LevelFP32:   math.Inf(1), // base rung; never "stepped to"
	Level2Bit:   0.50,
	Level1Bit:   0.48,
	Level1BitRS: 0.44,
}

// Defaults for the controller's hysteresis when the Config leaves them zero
// (DESIGN.md §13).
const (
	// DefaultHold is the consecutive below-threshold epochs required per
	// step.
	DefaultHold = 2
	// DefaultWarmup is the initial epochs during which no step is taken,
	// letting the embedding escape its random initialization before the
	// entropy signal means anything.
	DefaultWarmup = 2
)

// CtrlStatsLen is the length of the packed per-epoch statistics vector
// exchanged between ranks: the B bucket counts, then row count, row-norm
// sum, and row-norm square sum (DESIGN.md §13 wire format).
const CtrlStatsLen = EntropyBuckets + 3

// Bucket returns the histogram bucket of one gradient value. It reads the
// float32 exponent directly (no log calls), so the per-value cost is a few
// integer ops; exported so the testkit property check can histogram exactly
// the way the controller does.
func Bucket(v float32) int {
	e := int(math.Float32bits(v)>>23) & 0xff // biased exponent, sign masked
	b := (e - entropyExpFloor) / entropyExpPerBucket
	if b < 0 {
		return 0
	}
	if b >= EntropyBuckets {
		return EntropyBuckets - 1
	}
	return b
}

// EpochProbe is one epoch's controller verdict: the globally agreed gradient
// statistics and the rung in effect. It feeds EpochStats and the
// adaptive-compression sweep in EXPERIMENTS.md.
type EpochProbe struct {
	// Level is the rung that was in effect during the observed epoch.
	Level Level
	// Next is the rung for the following epoch (equal to Level unless
	// Stepped).
	Next Level
	// Stepped reports that the ladder advanced one rung this epoch.
	Stepped bool
	// Entropy is the normalized bucket entropy in [0, 1].
	Entropy float64
	// MeanNorm and NormVar are the mean and variance of the observed
	// gradient row 2-norms (diagnostics; the decision uses Entropy only —
	// DESIGN.md §13).
	MeanNorm float64
	NormVar  float64
	// Rows and Values count the observed gradient rows and the sampled
	// values across all ranks.
	Rows   float64
	Values float64
}

// Controller accumulates gradient statistics batch by batch and walks the
// compression ladder at epoch boundaries. One per rank; not safe for
// concurrent use. The per-batch Observe path and the per-epoch decision path
// are allocation-free: TestControllerAllocFree pins a warm Observe, StatsInto
// and AdvanceFrom cycle at 0, and core's TestTrainStepAllocs pins dyncomp's
// training step at 0.2 allocations per rank-batch.
type Controller struct {
	hold   int
	warmup int

	level Level
	run   int // consecutive qualifying epochs toward the next rung
	epoch int // completed (observed) epochs

	// Per-epoch local accumulators, reset by AdvanceFrom. float64 counts so
	// a long epoch cannot saturate; they are rounded into float32 for the
	// cross-rank sum (exact up to 2^24 samples per rank per epoch, far above
	// any batch regime here — DESIGN.md §13).
	hist    [EntropyBuckets]float64
	rows    float64
	normSum float64
	normSq  float64
}

// NewController returns a controller at the bottom rung. hold and warmup <= 0
// select DefaultHold and DefaultWarmup.
func NewController(hold, warmup int) *Controller {
	if hold <= 0 {
		hold = DefaultHold
	}
	if warmup <= 0 {
		warmup = DefaultWarmup
	}
	return &Controller{hold: hold, warmup: warmup}
}

// Level returns the rung currently in effect.
func (c *Controller) Level() Level { return c.level }

// Observe folds one batch's gradient into the epoch accumulators: every
// row's 2-norm, and every ObserveStride-th value's magnitude bucket. g is
// only read. Cost is one pass over the rows (the caller charges
// ObserveFlops to the virtual cluster).
func (c *Controller) Observe(g *SparseGrad) {
	g.ForEach(func(_ int32, row []float32) {
		var sq float64
		for _, v := range row {
			sq += float64(v) * float64(v)
		}
		n := math.Sqrt(sq)
		c.rows++
		c.normSum += n
		c.normSq += n * n
		for i := 0; i < len(row); i += ObserveStride {
			c.hist[Bucket(row[i])]++
		}
	})
}

// ObserveFlops returns the virtual flops one Observe pass over g costs: two
// per value for the norm, plus the strided bucket lookups.
func ObserveFlops(g *SparseGrad) float64 {
	vals := float64(g.Len() * g.Width())
	return vals*2 + vals/ObserveStride
}

// StatsInto packs the local epoch accumulators into buf (length
// CtrlStatsLen) for the cross-rank sum. The accumulators are not reset;
// AdvanceFrom does that.
func (c *Controller) StatsInto(buf []float32) {
	if len(buf) != CtrlStatsLen {
		panic("grad: controller stats buffer length mismatch")
	}
	for i := range c.hist {
		buf[i] = float32(c.hist[i])
	}
	buf[EntropyBuckets] = float32(c.rows)
	buf[EntropyBuckets+1] = float32(c.normSum)
	buf[EntropyBuckets+2] = float32(c.normSq)
}

// AdvanceFrom evaluates the decision rule (DESIGN.md §13) on the globally
// summed statistics vector and resets the epoch accumulators. Every rank
// must pass the identical reduced buf; the verdict is then identical
// everywhere. The rule: after warmup epochs, when the normalized entropy is
// below stepThreshold[level+1] for hold consecutive epochs, ascend one rung;
// the ladder never descends.
func (c *Controller) AdvanceFrom(buf []float32) EpochProbe {
	if len(buf) != CtrlStatsLen {
		panic("grad: controller stats buffer length mismatch")
	}
	var values float64
	for i := 0; i < EntropyBuckets; i++ {
		values += float64(buf[i])
	}
	h := 0.0
	if values > 0 {
		for i := 0; i < EntropyBuckets; i++ {
			if n := float64(buf[i]); n > 0 {
				p := n / values
				h -= p * math.Log2(p)
			}
		}
		h /= math.Log2(EntropyBuckets)
	}
	rows := float64(buf[EntropyBuckets])
	probe := EpochProbe{Level: c.level, Entropy: h, Rows: rows, Values: values}
	if rows > 0 {
		mean := float64(buf[EntropyBuckets+1]) / rows
		probe.MeanNorm = mean
		probe.NormVar = float64(buf[EntropyBuckets+2])/rows - mean*mean
		if probe.NormVar < 0 { // float32 round-off on the packed sums
			probe.NormVar = 0
		}
	}

	c.epoch++
	if c.epoch > c.warmup && c.level < maxLevel && h < stepThreshold[c.level+1] {
		c.run++
		if c.run >= c.hold {
			c.level++
			c.run = 0
			probe.Stepped = true
		}
	} else {
		c.run = 0
	}
	probe.Next = c.level

	c.hist = [EntropyBuckets]float64{}
	c.rows, c.normSum, c.normSq = 0, 0, 0
	return probe
}

// ExactEntropy computes the normalized bucket entropy of g over every value
// (stride 1) — the reference the strided Observe estimate is checked
// against by the testkit property suite. Not a hot path.
func ExactEntropy(g *SparseGrad) float64 {
	var hist [EntropyBuckets]float64
	var total float64
	g.ForEach(func(_ int32, row []float32) {
		for _, v := range row {
			hist[Bucket(v)]++
			total++
		}
	})
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, n := range hist {
		if n > 0 {
			p := n / total
			h -= p * math.Log2(p)
		}
	}
	return h / math.Log2(EntropyBuckets)
}
