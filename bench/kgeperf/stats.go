package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two for an even
// count) without reordering the caller's slice; 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// supportedPercentile is the percentile rule of the choosing-metrics guide:
// the highest ladder percentile with at least ten samples beyond it. It
// returns 0 when even the median has fewer than ten samples above it.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		beyond := int(math.Floor(float64(n)*(1-p) + 1e-9))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share of
// the median, computed the way Python's statistics.quantiles(xs, n=4)
// (exclusive method) computes the quartiles. It needs at least two samples
// and a non-zero median; otherwise it reports 0.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th quartile, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / med)
}

// worseBy is how much b is worse than a, as a share of a: positive when b
// moved in the wrong direction for the metric, negative when it improved.
// Against a zero baseline any move is infinitely large.
func worseBy(a, b float64, better string) float64 {
	d := (b - a) / math.Abs(a)
	if a == 0 {
		switch {
		case b == 0:
			return 0
		case b > 0:
			d = math.Inf(1)
		default:
			d = math.Inf(-1)
		}
	}
	if better == "higher" {
		return -d
	}
	return d
}
