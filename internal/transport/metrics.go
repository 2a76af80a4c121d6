package transport

// Transport health instrumentation, built on the lock-free runtime types in
// internal/metrics. One Metrics instance is shared by an endpoint and all of
// its successors across Shrink generations, so reconnect and failure
// counters accumulate over the life of the process rather than resetting on
// every re-mesh. Rendered through WritePrometheus for the kgetrain
// -metrics-addr endpoint.

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"kgedist/internal/metrics"
)

// RTTBuckets returns histogram upper bounds in seconds spanning the range
// application-level heartbeat round-trips live in: 50µs (localhost loopback)
// up to 10s (a peer on the edge of a heartbeat timeout).
func RTTBuckets() []float64 {
	return []float64{
		0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Metrics aggregates transport health counters. All fields are safe for
// concurrent use; a nil *Metrics is a valid no-op sink via the method set.
type Metrics struct {
	BytesSent       metrics.Counter
	BytesRecv       metrics.Counter
	FramesSent      metrics.Counter
	FramesRecv      metrics.Counter
	Reconnects      metrics.Counter // dial retries after a failed attempt
	HeartbeatMisses metrics.Counter // read deadlines expired waiting on a peer
	CRCErrors       metrics.Counter // frames rejected by checksum
	RankFailures    metrics.Counter // peers declared dead

	mu  sync.Mutex
	rtt map[int]*metrics.Histogram // per-peer heartbeat RTT, keyed by original rank
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{rtt: make(map[int]*metrics.Histogram)}
}

// ObserveRTT records one heartbeat round-trip (in seconds) for a peer,
// keyed by the peer's original (generation-0) rank so the series survives
// shrink renumbering. No-op on a nil receiver.
func (m *Metrics) ObserveRTT(origPeer int, seconds float64) {
	if m == nil {
		return
	}
	m.rttFor(origPeer).Observe(seconds)
}

func (m *Metrics) rttFor(origPeer int) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.rtt[origPeer]
	if h == nil {
		h = metrics.NewHistogram(RTTBuckets()...)
		m.rtt[origPeer] = h
	}
	return h
}

// AddSent records one outbound frame of n wire bytes. No-op on nil.
func (m *Metrics) AddSent(n int64) {
	if m == nil {
		return
	}
	m.FramesSent.Inc()
	m.BytesSent.Add(n)
}

// AddRecv records one inbound frame of n wire bytes. No-op on nil.
func (m *Metrics) AddRecv(n int64) {
	if m == nil {
		return
	}
	m.FramesRecv.Inc()
	m.BytesRecv.Add(n)
}

// IncReconnect, IncHeartbeatMiss, IncCRCError and IncRankFailure bump the
// corresponding counter; all are no-ops on a nil receiver so the endpoint
// hot paths need no nil checks.
func (m *Metrics) IncReconnect() {
	if m != nil {
		m.Reconnects.Inc()
	}
}

// IncHeartbeatMiss records one expired peer read deadline.
func (m *Metrics) IncHeartbeatMiss() {
	if m != nil {
		m.HeartbeatMisses.Inc()
	}
}

// IncCRCError records one corrupt frame.
func (m *Metrics) IncCRCError() {
	if m != nil {
		m.CRCErrors.Inc()
	}
}

// IncRankFailure records one peer declared dead.
func (m *Metrics) IncRankFailure() {
	if m != nil {
		m.RankFailures.Inc()
	}
}

// WritePrometheus renders every counter and per-peer RTT histogram in the
// Prometheus text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	if m == nil {
		return
	}
	counters := []struct {
		name string
		c    *metrics.Counter
	}{
		{"kgedist_transport_bytes_sent_total", &m.BytesSent},
		{"kgedist_transport_bytes_received_total", &m.BytesRecv},
		{"kgedist_transport_frames_sent_total", &m.FramesSent},
		{"kgedist_transport_frames_received_total", &m.FramesRecv},
		{"kgedist_transport_reconnect_attempts_total", &m.Reconnects},
		{"kgedist_transport_heartbeat_misses_total", &m.HeartbeatMisses},
		{"kgedist_transport_crc_errors_total", &m.CRCErrors},
		{"kgedist_transport_rank_failures_total", &m.RankFailures},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.c.Value())
	}
	m.mu.Lock()
	peers := make([]int, 0, len(m.rtt))
	for p := range m.rtt {
		peers = append(peers, p)
	}
	snaps := make(map[int]metrics.HistogramSnapshot, len(m.rtt))
	for p, h := range m.rtt {
		snaps[p] = h.Snapshot()
	}
	m.mu.Unlock()
	sort.Ints(peers)
	const rttName = "kgedist_transport_heartbeat_rtt_seconds"
	if len(peers) > 0 {
		fmt.Fprintf(w, "# TYPE %s histogram\n", rttName)
	}
	for _, p := range peers {
		snaps[p].WriteTo(w, rttName, fmt.Sprintf("peer=\"%d\"", p))
	}
}
