package metrics

// Runtime instrumentation for long-lived services (kgeserve): lock-free
// counters and fixed-bucket histograms safe for concurrent Observe from
// request handlers, with cheap snapshots for a /metrics endpoint. The
// rendering half of this package formats offline experiment reports; these
// types are its online counterpart and deliberately have no dependencies
// beyond sync/atomic.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; values above the last bound land in an implicit +Inf
// overflow bucket. Observe is wait-free (one atomic add per call plus a CAS
// loop for the running sum), so it can sit on a request hot path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	sumBits atomic.Uint64  // float64 bits of the running sum
	count   atomic.Int64
}

// NewHistogram returns a histogram over the given strictly ascending upper
// bounds. It panics on an empty or unsorted bound list — a histogram with
// no buckets measures nothing.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: NewHistogram with no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: NewHistogram bounds not strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// LatencyBuckets returns upper bounds in seconds spanning 100µs..10s on a
// roughly logarithmic grid — the range HTTP inference latencies live in.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets returns power-of-two upper bounds 1..maxPow2 for counting
// discrete sizes (batch occupancy, result lengths).
func SizeBuckets(maxPow2 int) []float64 {
	var out []float64
	for b := 1; b <= maxPow2; b *= 2 {
		out = append(out, float64(b))
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// rendering: bucket counts are loaded individually, so a snapshot taken
// mid-Observe may be off by the in-flight observation — fine for metrics.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is overflow (+Inf)
	Count  int64
	Sum    float64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// bucket boundary below which at least q of the observations fall. Overflow
// observations report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			return s.Bounds[i]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// WriteTo renders the snapshot in the Prometheus text exposition style:
// cumulative `_bucket{le=...}` lines, then `_sum` and `_count`. labels, when
// not empty, is a label list such as `peer="3"` carried by every line ahead
// of the bucket's `le`.
func (s HistogramSnapshot) WriteTo(w io.Writer, name, labels string) {
	set := "" // the label set of _sum and _count
	if labels != "" {
		set = "{" + labels + "}"
		labels += ","
	}
	var cum int64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, b, cum)
	}
	cum += s.Counts[len(s.Counts)-1]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, s.Count)
}
