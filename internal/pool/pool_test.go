package pool

import (
	"testing"
)

func TestGetLength(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 1000, 1 << 16} {
		s := GetF32Uninit(n)
		if len(s) != n {
			t.Fatalf("GetF32Uninit(%d) returned len %d", n, len(s))
		}
		PutF32(s)
	}
}

func TestCapacityClasses(t *testing.T) {
	s := GetBytes(100)
	if cap(s) < 100 || cap(s) > 256 {
		t.Fatalf("GetBytes(100) cap %d, want in [100,256]", cap(s))
	}
	PutBytes(s)
	// A smaller request may reuse the same block; a larger one must not
	// return short.
	big := GetBytes(300)
	if len(big) != 300 {
		t.Fatalf("GetBytes(300) len %d", len(big))
	}
	PutBytes(big)
}

func TestReuseRoundTrip(t *testing.T) {
	s := GetBytes(64)
	s[0] = 7
	PutBytes(s)
	// sync.Pool gives no reuse guarantee, but same-goroutine immediate
	// re-get of the same class overwhelmingly hits the private cache; all we
	// assert is correctness, not identity.
	r := GetBytes(64)
	if len(r) != 64 {
		t.Fatalf("re-get len %d", len(r))
	}
	PutBytes(r)
}

func TestOversizeRequestsBypassPool(t *testing.T) {
	n := (1 << maxClass) + 1
	s := GetBytes(n)
	if len(s) != n {
		t.Fatalf("oversize GetBytes len %d, want %d", len(s), n)
	}
	PutBytes(s) // must be a no-op, not a panic
}

func TestPutShortCapGet(t *testing.T) {
	// A slice whose cap is not a power of two buckets down, so re-getting
	// the bucket's class always fits.
	raw := make([]byte, 100, 100)
	PutBytes(raw)
	got := GetBytes(64)
	if len(got) != 64 {
		t.Fatalf("len %d", len(got))
	}
	PutBytes(got)
}

func TestZeroCapPutIgnored(t *testing.T) {
	PutF32(nil)
	PutF32([]float32{})
	PutBytes(nil)
}

// Steady-state Get/Put must not allocate (modulo sync.Pool's occasional
// victim-cache refill, absorbed by the warm-up and run count).
func TestAllocFreeSteadyState(t *testing.T) {
	for i := 0; i < 16; i++ { // warm the per-P private caches
		PutF32(GetF32Uninit(1024))
	}
	allocs := testing.AllocsPerRun(200, func() {
		s := GetF32Uninit(1024)
		PutF32(s)
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state Get/Put allocates %.2f allocs/op, want 0", allocs)
	}
}

func BenchmarkGetPutF32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := GetF32Uninit(4096)
		PutF32(s)
	}
}

func BenchmarkGetPutBytes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := GetBytes(4096)
		PutBytes(s)
	}
}
