// Package transport abstracts the byte-moving substrate underneath
// internal/mpi. The collectives (ring all-reduce, binomial broadcast, ring
// all-gather) are algorithms over point-to-point sends and receives plus a
// global rendezvous; this package defines that contract once so it can be
// satisfied by two very different fabrics:
//
//   - chantransport: every rank is a goroutine in one process and links are
//     buffered Go channels — the deterministic simulation backend the golden
//     runs and fault-plan tests are built on.
//   - tcptransport: every rank is a real OS process and links are TCP
//     connections with length-prefixed CRC-checked frames, heartbeats, dial
//     retry and a rendezvous handshake — the backend that survives real
//     connection failures.
//
// The failure model is shared (ULFM-style, see internal/mpi/fault.go): a
// dead peer trips a world-global abort, every blocked or future operation
// returns an error, and the caller recovers by shrinking the world. Both
// backends must pass the conformance suite in transport/conformance so their
// semantics cannot drift.
package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Message is the unit carried by point-to-point links. Exactly one payload
// field is populated per message; Seq guards against collective skew bugs
// (a rank receiving a frame from a different collective than the one it is
// executing). Clock is the sender's running maximum of the virtual cluster
// clock: a process world's collectives agree on the cluster clock by folding
// it in on every receive, so no collective needs a clock exchange of its
// own. Channel worlds leave it zero.
//
// Ownership: a sent Message and its slices belong to the transport until the
// peer consumes them. Callers must not mutate payloads after Send. The
// channel backend moves the slices by reference (zero copy); the TCP backend
// serializes them and decodes into slices the receiver owns exclusively,
// which may come from internal/pool (DESIGN.md §10): the receiver may Put
// them, or keep them and never Put them.
//
// Pooled marks F32 and Raw as internal/pool buffers whose only reader is the
// transport and the one receiving rank, so whichever side consumes the bytes
// last recycles them: the TCP backend Puts them once the frame holding their
// copy is sealed, and the channel backend hands them to the receiver, which
// Puts them. A sender that keeps reading a section, or hands the same slice
// to several ranks, leaves Pooled false. Pooled never travels on the wire.
type Message struct {
	Seq    uint64
	F32    []float32
	I32    []int32
	Raw    []byte
	F64    float64
	Clock  float64
	Pooled bool
}

// ErrRecvTimeout reports that a receive watchdog deadline expired with no
// message and no failure verdict. The caller (mpi's recv) decides what the
// timeout means — it declares the silent peer dead via FailRank.
var ErrRecvTimeout = errors.New("transport: receive deadline expired")

// ErrAborted reports that an operation was torn down by the world-global
// abort but no dead rank had been recorded yet (a should-not-happen race
// guard; the usual path returns *RankFailedError from Err).
var ErrAborted = errors.New("transport: operation aborted")

// RankFailedError reports that one or more ranks died during a collective.
// Every surviving rank observes the same error at its next (or current)
// operation; recovery is to Shrink the world over the survivors and re-run.
// internal/mpi aliases this type so `*mpi.RankFailedError` and
// `*transport.RankFailedError` are interchangeable in errors.As.
type RankFailedError struct {
	// Ranks lists the dead ranks, sorted ascending.
	Ranks []int
}

// Error implements the error interface.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank(s) %v failed; shrink the world to continue", e.Ranks)
}

// Endpoint is one rank's handle on the fabric. All methods may be called
// concurrently with each other; Send/Recv for a given (peer, direction) pair
// are called from one goroutine at a time (the rank's collective loop).
//
// Every blocking operation must select on the failure abort: after any rank
// is declared dead, blocked and future calls return the *RankFailedError
// from Err instead of hanging.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the world size.
	Size() int
	// Send delivers m to dst's inbox for this rank. It blocks only on
	// backpressure (a full link) and unblocks with an error on abort.
	Send(dst int, m Message) error
	// Recv returns the next message from src. A timeout > 0 arms a
	// watchdog: if it expires before a message or an abort, Recv returns
	// ErrRecvTimeout and the caller chooses the verdict (mpi declares the
	// silent peer dead). timeout <= 0 blocks until a message or abort.
	Recv(src int, timeout time.Duration) (Message, error)
	// Rendezvous blocks until every live rank has called it, then releases
	// all of them. onLast (may be nil) runs after all have arrived and
	// before any is released: exactly once per rendezvous on one rank of a
	// channel world, where mpi uses it to charge each collective once to the
	// world's one shared cluster; once per process on TCP, where it is the
	// ready barrier that Dial and Shrink end with. Process-world
	// collectives do not call it: their own messages carry the clock.
	Rendezvous(onLast func()) error
	// FailRank declares a rank dead, tripping the world-global abort.
	// Idempotent; safe from any goroutine.
	FailRank(rank int)
	// Failed returns the ranks known dead, sorted ascending (nil if none).
	Failed() []int
	// Err returns the *RankFailedError for the current dead set, or nil.
	Err() error
	// Close releases the endpoint's resources (connections, goroutines).
	// After Close, operations fail. Close is idempotent.
	Close() error
}

// ArmTimer starts *t to fire after d, creating it on first use, and returns
// it: the reusable receive watchdog both backends keep per source rank, so a
// Recv with a timeout allocates nothing after its first call. The caller
// Stops the timer when the receive ends. One goroutine at a time may use a
// given *t, as Recv for one source is called from one goroutine at a time;
// since Go 1.23 Stop and Reset leave no stale tick in the channel, so a
// reset timer fires only for its new deadline.
func ArmTimer(t **time.Timer, d time.Duration) *time.Timer {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return *t
}

// Shrinker is implemented by endpoints that can rebuild themselves over the
// survivors of a failure (the TCP backend re-meshes; the channel backend is
// rebuilt wholesale by mpi.NewWorld instead). dead lists current-world ranks;
// the returned endpoint renumbers survivors densely in rank order. The old
// endpoint is consumed: its connections are torn down and only the returned
// endpoint may be used afterwards.
type Shrinker interface {
	Shrink(dead []int) (Endpoint, error)
}

// FailureState tracks dead ranks and the world-wide abort signal. Both
// backends embed one; mpi reads the verdict through the Endpoint interface.
type FailureState struct {
	mu      sync.Mutex
	dead    []int
	abort   chan struct{}
	aborted bool
	onFirst func()
}

// NewFailureState returns a healthy failure state. onFirstFail (may be nil)
// runs once, when the first rank is declared dead, while the abort channel
// is being closed — backends use it to tear down their rendezvous primitive.
func NewFailureState(onFirstFail func()) *FailureState {
	return &FailureState{abort: make(chan struct{}), onFirst: onFirstFail}
}

// Abort returns the channel closed when any rank is declared dead. Blocking
// operations select on it.
func (fs *FailureState) Abort() <-chan struct{} { return fs.abort }

// Fail marks rank dead and trips the abort signal on first use. Reports
// whether the rank was newly dead.
func (fs *FailureState) Fail(rank int) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range fs.dead {
		if r == rank {
			return false
		}
	}
	fs.dead = append(fs.dead, rank)
	sort.Ints(fs.dead)
	if !fs.aborted {
		fs.aborted = true
		if fs.onFirst != nil {
			fs.onFirst()
		}
		close(fs.abort)
	}
	return true
}

// Failed returns a copy of the dead-rank set (nil when healthy).
func (fs *FailureState) Failed() []int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.dead) == 0 {
		return nil
	}
	return append([]int(nil), fs.dead...)
}

// Err returns the RankFailedError for the current dead set, or nil.
func (fs *FailureState) Err() error {
	ranks := fs.Failed()
	if ranks == nil {
		return nil
	}
	return &RankFailedError{Ranks: ranks}
}
