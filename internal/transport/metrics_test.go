package transport

import (
	"strings"
	"testing"
)

// TestWritePrometheusExposition pins the full exposition text for a fixed
// set of observations: every counter, then one labelled RTT histogram per
// peer in rank order, with an overflow observation in the +Inf bucket.
func TestWritePrometheusExposition(t *testing.T) {
	m := NewMetrics()
	m.AddSent(100)
	m.AddSent(28)
	m.AddRecv(64)
	m.IncReconnect()
	m.IncHeartbeatMiss()
	m.IncCRCError()
	m.IncRankFailure()
	m.ObserveRTT(2, 0.0003)
	m.ObserveRTT(2, 0.004)
	m.ObserveRTT(0, 12)
	var b strings.Builder
	m.WritePrometheus(&b)
	if got := b.String(); got != wantTransportExposition {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, wantTransportExposition)
	}
}

const wantTransportExposition = `# TYPE kgedist_transport_bytes_sent_total counter
kgedist_transport_bytes_sent_total 128
# TYPE kgedist_transport_bytes_received_total counter
kgedist_transport_bytes_received_total 64
# TYPE kgedist_transport_frames_sent_total counter
kgedist_transport_frames_sent_total 2
# TYPE kgedist_transport_frames_received_total counter
kgedist_transport_frames_received_total 1
# TYPE kgedist_transport_reconnect_attempts_total counter
kgedist_transport_reconnect_attempts_total 1
# TYPE kgedist_transport_heartbeat_misses_total counter
kgedist_transport_heartbeat_misses_total 1
# TYPE kgedist_transport_crc_errors_total counter
kgedist_transport_crc_errors_total 1
# TYPE kgedist_transport_rank_failures_total counter
kgedist_transport_rank_failures_total 1
# TYPE kgedist_transport_heartbeat_rtt_seconds histogram
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="5e-05"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.0001"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.00025"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.0005"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.001"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.0025"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.005"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.01"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.025"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.05"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.1"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.25"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="0.5"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="1"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="2.5"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="5"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="10"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="0",le="+Inf"} 1
kgedist_transport_heartbeat_rtt_seconds_sum{peer="0"} 12
kgedist_transport_heartbeat_rtt_seconds_count{peer="0"} 1
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="5e-05"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.0001"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.00025"} 0
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.0005"} 1
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.001"} 1
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.0025"} 1
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.005"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.01"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.025"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.05"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.1"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.25"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="0.5"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="1"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="2.5"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="5"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="10"} 2
kgedist_transport_heartbeat_rtt_seconds_bucket{peer="2",le="+Inf"} 2
kgedist_transport_heartbeat_rtt_seconds_sum{peer="2"} 0.0043
kgedist_transport_heartbeat_rtt_seconds_count{peer="2"} 2
`
