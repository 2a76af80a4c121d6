package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4; 100 overflows.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Fatalf("sum = %g, want 106", s.Sum)
	}
	if math.Abs(s.Mean()-106.0/5) > 1e-9 {
		t.Fatalf("mean = %g", s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(SizeBuckets(16)...) // 1 2 4 8 16
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); math.Abs(q-1) > 1e-9 {
		t.Fatalf("p50 = %g, want 1", q)
	}
	if q := s.Quantile(0.99); math.Abs(q-16) > 1e-9 {
		t.Fatalf("p99 = %g, want 16", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets()...)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001 * float64(w+1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	wantSum := 0.0
	for w := 0; w < workers; w++ {
		wantSum += 0.001 * float64(w+1) * per
	}
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramWriteTo(t *testing.T) {
	h := NewHistogram(1, 2)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var b strings.Builder
	h.Snapshot().WriteTo(&b, "test_latency", "")
	out := b.String()
	for _, want := range []string{
		`test_latency_bucket{le="1"} 1`,
		`test_latency_bucket{le="2"} 2`,
		`test_latency_bucket{le="+Inf"} 3`,
		"test_latency_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNewHistogramValidation(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {2, 1},
		"dupes":    {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s bounds did not panic", name)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}
