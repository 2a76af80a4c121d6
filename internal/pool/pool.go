// Package pool provides size-classed free lists for the scratch slices the
// training and serving hot paths burn through: []float32 gradient/staging
// buffers and []byte wire payloads. It exists so per-batch work (gradient
// encode/decode, collective staging, model scoring) can run allocation-free
// after warm-up instead of churning the garbage collector every epoch.
//
// Slices are recycled through sync.Pool buckets keyed by ceil-power-of-two
// capacity, so a Get never returns a slice with less capacity than asked and
// never wastes more than 2x. All functions are safe for concurrent use —
// sync.Pool does the sharding — which matters because ownership of a pooled
// buffer may legally transfer between goroutines: an mpi sender gets a
// staging buffer and sends it marked transport.Message.Pooled, and its last
// reader releases it — the receiving rank on the channel fabric, the TCP
// write loop once the frame holding its copy is sealed.
//
// Ownership contract (see DESIGN.md §10): a Get hands the caller exclusive
// ownership; a Put surrenders it. Never Put a slice that another goroutine
// may still read, never use a slice after Put, and never Put the same slice
// twice. Buffers that cross a collective and are retained by multiple ranks
// (all-gather payloads) must NOT be pooled — they stay ordinary garbage.
//
// The contract is held by tests, not by a static analyzer. A sender that
// recycles a staging buffer still in flight, or a collective that reads a
// block after Put, changes trained bits: the goldens (kgeverify), the
// checkpoint pins and the chan-vs-TCP trajectory identity gate (kgeverify
// -tcp) fail, and the race tier (`make race`) reports the receiver's
// reads as data races. tcptransport's codec tests pin the decoder's side:
// TestDataFrameCodecMatchesReference requires its error path to Put the F32
// section exactly once, and TestDataFrameSteadyStateAllocs requires pooled
// F32 and Raw sections to decode without allocating. On the channel world,
// mpi's TestCollectiveSteadyStateAllocs requires a warm AllReduceSum and
// AllReduceEncoded to allocate nothing (0 per rank and call measured), and
// core's TestTrainStepAllocs pins the whole training step per rank-batch.
package pool

import (
	"math/bits"
	"sync"
)

// maxClass bounds the bucketed capacity at 1<<maxClass elements; larger
// requests are allocated directly and dropped on Put, so one giant temporary
// cannot pin memory in the pool forever.
const maxClass = 24 // 16Mi elements: 64 MiB float32, 16 MiB bytes

// class returns the bucket index for a capacity: the smallest k with
// 1<<k >= n. Requests beyond maxClass report ok=false (unpooled).
func class(n int) (k int, ok bool) {
	if n <= 1 {
		return 0, true
	}
	k = bits.Len(uint(n - 1))
	return k, k <= maxClass
}

// bucketed is one size-classed pool family. The pools store *[]T boxes, and
// the boxes themselves are recycled through a side pool so a steady-state
// Get/Put cycle performs zero allocations (boxing &s on every Put would
// otherwise cost one).
type bucketed[T any] struct {
	buckets [maxClass + 1]sync.Pool
	boxes   sync.Pool // spent *[]T headers awaiting reuse
}

func (p *bucketed[T]) get(n int) []T {
	k, ok := class(n)
	if !ok {
		return make([]T, n)
	}
	if v := p.buckets[k].Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil // do not pin the buffer from the box pool
		p.boxes.Put(box)
		return s[:n]
	}
	return make([]T, n, 1<<k)
}

func (p *bucketed[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	// Bucket by the largest class fully contained in cap, so a Get from
	// that bucket can always re-slice to its requested length.
	k := bits.Len(uint(c)) - 1
	if k > maxClass {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:c]
	p.buckets[k].Put(box)
}

var (
	f32Pool  bucketed[float32]
	bytePool bucketed[byte]
)

// GetF32Uninit returns a float32 slice of length n whose contents are
// arbitrary (recycled). Use it when every element is about to be
// overwritten, e.g. staging buffers filled by copy. The caller owns it
// exclusively until PutF32.
func GetF32Uninit(n int) []float32 { return f32Pool.get(n) }

// PutF32 recycles a slice obtained from GetF32Uninit (or any
// exclusively-owned []float32). The caller must not touch s afterwards.
func PutF32(s []float32) { f32Pool.put(s) }

// GetBytes returns a byte slice of length n with arbitrary (recycled)
// contents. The caller owns it exclusively until PutBytes.
func GetBytes(n int) []byte { return bytePool.get(n) }

// PutBytes recycles a slice obtained from GetBytes. The caller must not
// touch s afterwards.
func PutBytes(s []byte) { bytePool.put(s) }
