// Package mpi implements the message-passing substrate the paper obtains
// from Horovod/MPI: a fixed world of ranks with synchronous collectives.
//
// The collectives are the textbook algorithms (ring reduce-scatter +
// all-gather for AllReduceSum, ring block rotation for the variable-size
// all-gathers, pairwise exchange for the all-to-all, binomial trees for
// broadcast and scalar reductions), written
// against the transport.Endpoint interface so the same code runs over two
// fabrics: the in-process channel backend (internal/transport/chantransport
// — each rank a goroutine, the deterministic simulation substrate) and the
// multi-process TCP backend (internal/transport/tcptransport — each rank a
// real OS process surviving real connection failures). Timing is charged to
// the attached simnet.Cluster using the standard cost formula for each
// algorithm, with the exact byte volume the operation moved. Every
// collective returns the virtual seconds it cost, which the dynamic
// selection strategy (paper §4.1) uses to compare all-reduce against
// all-gather probes.
//
// All collectives are globally synchronizing: they end with a rendezvous so
// per-rank virtual clocks are identical on return, matching the
// bulk-synchronous training loop of the paper.
//
// Collectives are fallible: a dead rank (scheduled crash fault, receive
// deadline expiry, rank panic, or — over TCP — a real connection loss)
// surfaces as a *RankFailedError on every survivor rather than a deadlock or
// a panic — see fault.go for the failure model and World.Shrink for
// recovery.
//
// # Buffer ownership
//
// Three disciplines keep the hot path allocation-free without data races
// (DESIGN.md §10). Point-to-point staging copies inside the dense
// collectives (AllReduceSum, and the compressed hops in compressed.go) are
// recycled through internal/pool: the sender gets a buffer and sends it
// marked Pooled, and whichever side reads it last puts it back — the one
// receiver on the channel backend, the write loop once the frame is sealed
// on TCP. All-gather payloads (AllGatherRows, AllGatherBytes) are the
// opposite: the ring rotation shares one backing array with every rank, so
// the payload ownership transfers to the world — callers must pass freshly
// allocated slices and treat the returned ones as immutable. All-to-all
// blocks (AllToAllRows) have exactly one reader: a sent block belongs to its
// destination, which may overwrite or recycle it, and the sender must not
// touch it again. (The TCP backend serializes payloads onto the wire, so
// received slices there are always fresh; the contract is set by the
// zero-copy channel backend.)
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"kgedist/internal/pool"
	"kgedist/internal/simnet"
	"kgedist/internal/tensor"
	"kgedist/internal/transport"
	"kgedist/internal/transport/chantransport"
)

// message is the unit carried by point-to-point links. Exactly one payload
// field is populated per message; Seq guards against collective skew bugs.
type message = transport.Message

// World is a communicator world of P ranks sharing a simnet cluster. A
// channel world hosts every rank in this process (one goroutine each); a
// process world (NewProcessWorld) hosts exactly one rank and reaches its
// peers through a multi-process transport endpoint.
type World struct {
	p           int
	cluster     *simnet.Cluster
	eps         []transport.Endpoint // indexed by rank; nil for remote ranks
	local       []int                // ranks hosted in this process, ascending
	proc        bool                 // true for a process world
	seq         []uint64             // per-rank collective sequence number
	recvTimeout time.Duration
}

// NewWorld builds an in-process world with one rank per cluster node over
// the channel transport.
func NewWorld(cluster *simnet.Cluster) *World {
	p := cluster.P()
	hub := chantransport.New(p)
	eps := make([]transport.Endpoint, p)
	local := make([]int, p)
	for r := 0; r < p; r++ {
		eps[r] = hub.Endpoint(r)
		local[r] = r
	}
	return &World{
		p:           p,
		cluster:     cluster,
		eps:         eps,
		local:       local,
		seq:         make([]uint64, p),
		recvTimeout: DefaultRecvTimeout,
	}
}

// NewProcessWorld builds a world hosting the single rank ep.Rank() of a
// multi-process job. The cluster is this process's private copy of the
// timing model: every process charges the same deterministic collective
// costs to its own clocks, so virtual time stays identical across processes
// without any extra communication.
func NewProcessWorld(cluster *simnet.Cluster, ep transport.Endpoint) (*World, error) {
	p := cluster.P()
	if ep.Size() != p {
		return nil, fmt.Errorf("mpi: endpoint world size %d != cluster size %d", ep.Size(), p)
	}
	eps := make([]transport.Endpoint, p)
	eps[ep.Rank()] = ep
	return &World{
		p:           p,
		cluster:     cluster,
		eps:         eps,
		local:       []int{ep.Rank()},
		proc:        true,
		seq:         make([]uint64, p),
		recvTimeout: DefaultRecvTimeout,
	}, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.p }

// Cluster returns the attached timing model.
func (w *World) Cluster() *simnet.Cluster { return w.cluster }

// LocalRanks returns the ranks hosted in this process: every rank for a
// channel world, exactly one for a process world.
func (w *World) LocalRanks() []int { return w.local }

// Process reports whether this is a process world (one rank per OS process).
func (w *World) Process() bool { return w.proc }

// Close releases the transport endpoint's resources. Required for process
// worlds (TCP connections, goroutines); a no-op for channel worlds.
func (w *World) Close() error { return w.anyEp().Close() }

// anyEp returns an endpoint hosted by this process (all endpoints share the
// world's failure state, so any one answers global questions).
func (w *World) anyEp() transport.Endpoint { return w.eps[w.local[0]] }

// Comm returns the communicator handle for one rank, which must be hosted
// in this process.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.p {
		panic("mpi: rank out of range")
	}
	if w.eps[rank] == nil {
		panic(fmt.Sprintf("mpi: rank %d is not hosted in this process", rank))
	}
	c := &Comm{w: w, rank: rank, ep: w.eps[rank]}
	c.charge = c.chargeCollective
	return c
}

// failRank declares rank dead: the abort trips and every blocked or future
// operation on every live rank returns a *RankFailedError.
func (w *World) failRank(rank int) {
	w.anyEp().FailRank(rank)
}

// err returns the failure verdict for the current dead set, or nil.
func (w *World) err() error { return w.anyEp().Err() }

// rankPanic captures one rank's panic with its stack for aggregated
// reporting.
type rankPanic struct {
	rank  int
	val   any
	stack []byte
}

// Run spawns one goroutine per local rank executing f and waits for all of
// them. Panics inside rank bodies are re-raised on the caller in one
// combined panic that reports every panicked rank with its original stack
// trace. A collective failure (dead rank) in an error-blind body also
// panics; bodies that want to handle failures use RunErr.
func (w *World) Run(f func(c *Comm)) {
	if err := w.RunErr(func(c *Comm) error { f(c); return nil }); err != nil {
		panic(err)
	}
}

// RunErr spawns one goroutine per local rank executing f and waits for all
// of them. If any rank died (crash fault, receive timeout, connection loss,
// or panic of a peer), it returns a single *RankFailedError naming every
// dead rank; otherwise it returns the joined non-nil errors of the rank
// bodies. Panics are still re-raised, aggregated across ranks with their
// stacks.
func (w *World) RunErr(f func(c *Comm) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.local))
	panics := make([]*rankPanic, len(w.local))
	for i, r := range w.local {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[i] = &rankPanic{rank: rank, val: p, stack: debug.Stack()}
					// A panicked rank is dead to its peers: abort so the
					// survivors return errors instead of hanging at the
					// next rendezvous.
					w.failRank(rank)
				}
			}()
			errs[i] = f(w.Comm(rank))
		}(i, r)
	}
	wg.Wait()
	var panicked []*rankPanic
	for _, p := range panics {
		if p != nil {
			panicked = append(panicked, p)
		}
	}
	if len(panicked) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "mpi: %d rank(s) panicked", len(panicked))
		for _, p := range panicked {
			fmt.Fprintf(&b, "\n\nmpi: rank %d panicked: %v\n%s", p.rank, p.val, p.stack)
		}
		panic(b.String())
	}
	if err := w.err(); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// Comm is one rank's handle on the world. All collective methods must be
// called by every rank in the same order; they block until the operation
// completes globally or a failure aborts it, in which case they return a
// *RankFailedError.
type Comm struct {
	w    *World
	rank int
	ep   transport.Endpoint

	// The closing collective's charge, which finish stores for the
	// rendezvous hook: charge is c.chargeCollective, bound once in
	// World.Comm so no collective builds a closure.
	lift, cost  float64
	moved, msgs int64
	tag         string
	charge      func()
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.p }

// Cluster exposes the timing model (for compute-time charging).
func (c *Comm) Cluster() *simnet.Cluster { return c.w.cluster }

// enter opens a collective: the deterministic point where this rank's
// scheduled crash fault (if due by its virtual clock) fires, and where an
// already-failed world is refused.
func (c *Comm) enter() error {
	if c.w.cluster.CrashDue(c.rank) {
		c.w.failRank(c.rank)
	}
	return c.w.err()
}

// send transfers ownership of m's payload to the transport. A message marked
// Pooled is recycled by whichever side reads it last (DESIGN §10): the single
// receiver on the channel backend, the TCP write loop after sealing the
// frame. The sender must not touch or Put its sections after.
func (c *Comm) send(dst int, m message) error {
	m.Seq = c.w.seq[c.rank]
	return c.ep.Send(dst, m)
}

func (c *Comm) recv(src int) (message, error) {
	m, err := c.ep.Recv(src, c.w.recvTimeout)
	if err != nil {
		if errors.Is(err, transport.ErrRecvTimeout) {
			// Watchdog: the peer went silent past the deadline. Declare it
			// dead so every rank unblocks with the same verdict.
			c.w.failRank(src)
			return message{}, c.w.err()
		}
		if ferr := c.w.err(); ferr != nil {
			return message{}, ferr
		}
		return message{}, err
	}
	if m.Seq != c.w.seq[c.rank] {
		panic(fmt.Sprintf("mpi: rank %d received message from %d with seq %d during collective %d",
			c.rank, src, m.Seq, c.w.seq[c.rank]))
	}
	return m, nil
}

// finish closes a collective: rendezvous, charge cost once per process, bump
// this rank's sequence counter. The rendezvous hook runs after every rank
// has arrived and before any local rank is released, so the cluster clocks
// advance exactly once per collective per process (in a channel world that
// is once per world; in a process world each process charges its private
// cluster copy identically).
func (c *Comm) finish(cost float64, moved, msgs int64, tag string) error {
	c.lift = 0
	if c.w.proc {
		// A process world only accumulates this rank's compute on its
		// private cluster copy, so the collective's starting point — the
		// cluster-wide clock maximum — must be agreed over the wire.
		// Without this the makespan (and everything derived from it, like
		// per-epoch virtual seconds) silently drops every remote rank's
		// compute time. The channel world needs nothing: all ranks charge
		// one shared cluster.
		g, err := c.maxClock()
		if err != nil {
			if ferr := c.w.err(); ferr != nil {
				return ferr
			}
			return err
		}
		c.lift = g
	}
	c.cost, c.moved, c.msgs, c.tag = cost, moved, msgs, tag
	if err := c.ep.Rendezvous(c.charge); err != nil {
		if ferr := c.w.err(); ferr != nil {
			return ferr
		}
		return err
	}
	c.w.seq[c.rank]++
	return nil
}

// chargeCollective is finish's rendezvous hook: it lifts this process's
// clocks to the agreed start and charges the collective once.
func (c *Comm) chargeCollective() {
	if c.w.proc {
		c.w.cluster.LiftClock(c.rank, c.lift)
	}
	c.w.cluster.Collective(c.cost, c.moved, c.msgs, c.tag)
}

// maxClock agrees on the cluster-wide virtual-clock maximum across the
// processes of a process world: a binomial max-reduce of each process's own
// rank clock to rank 0, then a binomial broadcast back. It runs inside a
// collective (after enter, before finish's rendezvous), reusing the
// collective's sequence number; the exchange itself is bookkeeping and
// charges no virtual time.
func (c *Comm) maxClock() (float64, error) {
	result := c.w.cluster.Time(c.rank)
	p := c.w.p
	if p == 1 {
		return result, nil
	}
	vr := c.rank
	for k := 1; k < p; k <<= 1 {
		if vr&k != 0 {
			if err := c.send(vr^k, message{F64: result}); err != nil {
				return 0, err
			}
			break
		} else if vr|k < p {
			m, err := c.recv(vr | k)
			if err != nil {
				return 0, err
			}
			if m.F64 > result {
				result = m.F64
			}
		}
	}
	received := c.rank == 0
	for k := 1; k < 2*p; k <<= 1 {
		if c.rank < k && c.rank+k < p {
			if !received {
				panic("mpi: clock broadcast order violated")
			}
			if err := c.send(c.rank+k, message{F64: result}); err != nil {
				return 0, err
			}
		} else if c.rank >= k && c.rank < 2*k {
			m, err := c.recv(c.rank - k)
			if err != nil {
				return 0, err
			}
			result = m.F64
			received = true
		}
	}
	return result, nil
}

// Barrier synchronizes all ranks (dissemination-cost charge).
func (c *Comm) Barrier() error {
	if err := c.enter(); err != nil {
		return err
	}
	cost, moved, msgs := c.w.cluster.BarrierCost()
	return c.finish(cost, moved, msgs, "barrier")
}

// AllReduceSum sums buf element-wise across all ranks, leaving the result in
// every rank's buf. Implemented as ring reduce-scatter followed by ring
// all-gather — the dense "all-reduce" path of the paper's baseline. All
// ranks must pass equal-length buffers. Returns the virtual cost. On
// failure, buf is left in an unspecified partially-reduced state.
//
// buf is caller-owned and never retained. Ring staging copies are recycled
// through the pool: the sender stages into a pooled buffer marked Pooled,
// the transport or the single receiving rank releases it (the receiver also
// releases what it decoded on TCP), so the per-round exchange is
// allocation-free after warm-up on either fabric.
func (c *Comm) AllReduceSum(buf []float32, tag string) (float64, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	p := c.w.p
	n := len(buf)
	cost, moved, msgs := c.w.cluster.RingAllReduceCost(int64(4 * n))
	if p > 1 && n > 0 {
		r := c.rank
		// Chunk i covers [i*n/p, (i+1)*n/p) — computed arithmetically so the
		// boundaries need no per-call slice.
		chunk := func(i int) []float32 { return buf[i*n/p : (i+1)*n/p] }
		right := (r + 1) % p
		left := (r - 1 + p) % p
		// Phase 1: reduce-scatter. After step s, each rank has accumulated
		// s+2 partial contributions in one chunk.
		for s := 0; s < p-1; s++ {
			sendIdx := ((r-s)%p + p) % p
			recvIdx := ((r-s-1)%p + p) % p
			src := chunk(sendIdx)
			out := pool.GetF32Uninit(len(src))
			copy(out, src)
			if err := c.send(right, message{F32: out, Pooled: true}); err != nil {
				return 0, err
			}
			m, err := c.recv(left)
			if err != nil {
				return 0, err
			}
			tensor.Add(m.F32, chunk(recvIdx))
			pool.PutF32(m.F32)
		}
		// Phase 2: all-gather the reduced chunks.
		for s := 0; s < p-1; s++ {
			sendIdx := ((r+1-s)%p + p) % p
			recvIdx := ((r-s)%p + p) % p
			src := chunk(sendIdx)
			out := pool.GetF32Uninit(len(src))
			copy(out, src)
			if err := c.send(right, message{F32: out, Pooled: true}); err != nil {
				return 0, err
			}
			m, err := c.recv(left)
			if err != nil {
				return 0, err
			}
			copy(chunk(recvIdx), m.F32)
			pool.PutF32(m.F32)
		}
	}
	if err := c.finish(cost, moved, msgs, tag); err != nil {
		return 0, err
	}
	return cost, nil
}

// block is one rank's contribution to a variable-size all-gather.
type block struct {
	i32 []int32
	f32 []float32
	raw []byte
}

func (b block) bytes() int64 {
	return int64(4*len(b.i32) + 4*len(b.f32) + len(b.raw))
}

// ringAllGather rotates each rank's block around the ring so every rank ends
// with all P blocks, indexed by source rank.
func (c *Comm) ringAllGather(own block) ([]block, error) {
	p := c.w.p
	out := make([]block, p)
	out[c.rank] = own
	if p == 1 {
		return out, nil
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := own
	curSrc := c.rank
	for s := 0; s < p-1; s++ {
		if err := c.send(right, message{I32: cur.i32, F32: cur.f32, Raw: cur.raw}); err != nil {
			return nil, err
		}
		m, err := c.recv(left)
		if err != nil {
			return nil, err
		}
		curSrc = (curSrc - 1 + p) % p
		cur = block{i32: m.I32, f32: m.F32, raw: m.Raw}
		out[curSrc] = cur
	}
	return out, nil
}

// AllGatherRows gathers sparse gradient rows: each rank contributes row
// indices and a flat values buffer (len(idx)*dim values). Every rank
// receives all contributions, indexed by source rank. This is the paper's
// "all-gather" (sparse) exchange. Returns the virtual cost.
//
// Ownership: calling this transfers idx and vals to the world — the ring
// rotation hands the same backing arrays to every rank, and peers may still
// be reading them after this rank returns. The caller must pass freshly
// allocated slices (never pooled or recycled scratch) and must not mutate
// them afterwards. The returned per-source slices follow the same rule:
// read-only, shared with all other ranks.
func (c *Comm) AllGatherRows(idx []int32, vals []float32, tag string) (allIdx [][]int32, allVals [][]float32, cost float64, err error) {
	if err := c.enter(); err != nil {
		return nil, nil, 0, err
	}
	blocks, err := c.ringAllGather(block{i32: idx, f32: vals})
	if err != nil {
		return nil, nil, 0, err
	}
	sizes := make([]int64, len(blocks))
	for i, b := range blocks {
		sizes[i] = b.bytes()
	}
	cost, moved, msgs := c.w.cluster.AllGatherVCost(sizes)
	if err := c.finish(cost, moved, msgs, tag); err != nil {
		return nil, nil, 0, err
	}
	allIdx = make([][]int32, len(blocks))
	allVals = make([][]float32, len(blocks))
	for i, b := range blocks {
		allIdx[i] = b.i32
		allVals[i] = b.f32
	}
	return allIdx, allVals, cost, nil
}

// AllGatherBytes gathers one opaque byte payload per rank (used for
// bit-packed quantized gradients). Returns per-source payloads and cost.
// Ownership follows AllGatherRows: payload transfers to the world and must
// be freshly allocated; the returned payloads are read-only and shared
// across ranks.
func (c *Comm) AllGatherBytes(payload []byte, tag string) ([][]byte, float64, error) {
	if err := c.enter(); err != nil {
		return nil, 0, err
	}
	blocks, err := c.ringAllGather(block{raw: payload})
	if err != nil {
		return nil, 0, err
	}
	sizes := make([]int64, len(blocks))
	for i, b := range blocks {
		sizes[i] = b.bytes()
	}
	cost, moved, msgs := c.w.cluster.AllGatherVCost(sizes)
	if err := c.finish(cost, moved, msgs, tag); err != nil {
		return nil, 0, err
	}
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = b.raw
	}
	return out, cost, nil
}

// AllToAllRows delivers one block of sparse rows from every rank to every
// other rank: idx[d] and vals[d] are what this rank sends to rank d, and
// the call sets fromIdx[s], fromVals[s] to what rank s sent to this one.
// Either half of a block may be empty (an id-only or a values-only block),
// and a nil idx or vals sends that half empty to everyone. The result
// slices are the caller's, of length P, so the call allocates nothing for
// them; a nil fromIdx or fromVals drops that half. They must be slices of
// their own, not idx or vals: a block may arrive from rank s before this
// rank has sent idx[s]. The own slot is neither sent nor written.
// Schedule: pairwise exchange — in round k = 1…P−1 a rank sends to
// (rank+k) mod P and receives from (rank−k) mod P, so every block travels
// once, straight to the one rank that reads it. P = 1 returns at once with
// zero cost.
//
// Block sizes are data-dependent, so the ranks agree on the total bytes sent
// with a scalar sum before the rendezvous (chargeRounds) and charge
// (P−1)·α + (total/P)·β.
//
// Ownership: each block has exactly one reader. Sending hands idx[d] and
// vals[d] to rank d, so the caller must not touch them after the call; the
// received blocks belong to the caller outright — no other rank retains
// them — so it may overwrite or recycle them.
func (c *Comm) AllToAllRows(idx [][]int32, vals [][]float32, fromIdx [][]int32, fromVals [][]float32, tag string) (cost float64, err error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	if c.w.p == 1 {
		return 0, c.finish(0, 0, 0, tag)
	}
	sent, err := c.rounds(func(dst int) (int, error) {
		var b block
		if idx != nil {
			b.i32 = idx[dst]
		}
		if vals != nil {
			b.f32 = vals[dst]
		}
		return int(b.bytes()), c.send(dst, message{I32: b.i32, F32: b.f32})
	}, func(src int, m message) error {
		if fromIdx != nil {
			fromIdx[src] = m.I32
		}
		if fromVals != nil {
			fromVals[src] = m.F32
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return c.chargeRounds(1, sent, tag)
}

// rounds runs one exchange over the pairwise schedule: in round
// k = 1…P−1 this rank calls out(dst) for dst = (rank+k) mod P, which sends
// one message and returns its size in bytes, then hands what
// src = (rank−k) mod P sent to in(src, m); an error from either ends the
// exchange. Every ordered pair carries exactly one message, so a collective
// may run several exchanges back to back under one sequence number. Returns
// the bytes this rank sent; charging is left to chargeRounds.
func (c *Comm) rounds(out func(dst int) (int, error), in func(src int, m message) error) (int64, error) {
	p := c.w.p
	var sent int64
	for k := 1; k < p; k++ {
		dst, src := (c.rank+k)%p, (c.rank-k+p)%p
		n, err := out(dst)
		if err != nil {
			return 0, err
		}
		sent += int64(n)
		m, err := c.recv(src)
		if err != nil {
			return 0, err
		}
		if err := in(src, m); err != nil {
			return 0, err
		}
	}
	return sent, nil
}

// chargeRounds closes a collective made of n pairwise exchanges (rounds)
// in which this rank sent sent bytes. Message sizes are data-dependent, so
// the ranks agree on the total bytes sent with one scalar sum before the
// rendezvous and charge n(P−1)·α + (total/P)·β for nP(P−1) messages. The
// callers close P = 1 themselves, at zero cost. Returns the virtual cost.
func (c *Comm) chargeRounds(n int, sent int64, tag string) (float64, error) {
	p := c.w.p
	total, err := c.AllReduceScalar(float64(sent), OpSum)
	if err != nil {
		return 0, err
	}
	par := c.w.cluster.Params()
	steps := int64(n * (p - 1))
	cost := float64(steps)*par.Alpha + (total/float64(p))*par.Beta
	if err := c.finish(cost, int64(total), steps*int64(p), tag); err != nil {
		return 0, err
	}
	return cost, nil
}

// ReduceOp selects the combining function of AllReduceScalar.
type ReduceOp int

// Supported scalar reductions.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllReduceScalar reduces one float64 across ranks (binomial reduce to rank
// 0, then broadcast). Used for loss sums, validation metrics, and the
// dynamic-selection probe decisions. The returned value is only meaningful
// when err is nil.
func (c *Comm) AllReduceScalar(v float64, op ReduceOp) (float64, error) {
	if err := c.enter(); err != nil {
		return 0, err
	}
	p := c.w.p
	result := v
	if p > 1 {
		// Binomial reduce to rank 0.
		vr := c.rank
		for k := 1; k < p; k <<= 1 {
			if vr&k != 0 {
				if err := c.send(vr^k, message{F64: result}); err != nil {
					return 0, err
				}
				break
			} else if vr|k < p {
				m, err := c.recv(vr | k)
				if err != nil {
					return 0, err
				}
				switch op {
				case OpSum:
					result += m.F64
				case OpMax:
					if m.F64 > result {
						result = m.F64
					}
				case OpMin:
					if m.F64 < result {
						result = m.F64
					}
				default:
					panic("mpi: unknown reduce op")
				}
			}
		}
		// Binomial broadcast from rank 0.
		received := c.rank == 0
		for k := 1; k < 2*p; k <<= 1 {
			if c.rank < k && c.rank+k < p {
				if !received {
					panic("mpi: scalar broadcast order violated")
				}
				if err := c.send(c.rank+k, message{F64: result}); err != nil {
					return 0, err
				}
			} else if c.rank >= k && c.rank < 2*k {
				m, err := c.recv(c.rank - k)
				if err != nil {
					return 0, err
				}
				result = m.F64
				received = true
			}
		}
	}
	cost, moved, msgs := c.w.cluster.BroadcastCost(8)
	if err := c.finish(2*cost, 2*moved, 2*msgs, "scalar"); err != nil {
		return 0, err
	}
	return result, nil
}
