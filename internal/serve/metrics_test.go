package serve

import (
	"net/http/httptest"
	"regexp"
	"testing"
)

// TestMetricsExposition pins the full /metrics text for a fixed set of
// observations: per-endpoint counters and latency histograms, the batch-size
// and approx-latency histograms, cache and store gauges. Only the two
// wall-clock readings (qps and uptime) are masked.
func TestMetricsExposition(t *testing.T) {
	s, _, _ := newTestServer(t, 16)
	s.endpoints["score"].requests.Add(3)
	s.endpoints["score"].errors.Inc()
	s.endpoints["score"].latency.Observe(0.0002)
	s.endpoints["score"].latency.Observe(0.003)
	s.endpoints["predict"].requests.Add(2)
	s.endpoints["predict"].latency.Observe(0.7)
	s.endpoints["predict"].latency.Observe(20)
	for _, n := range []float64{1, 3, 8} {
		s.batchSizes.Observe(n)
	}
	s.approxRequests.Add(2)
	s.approxCandidates.Add(64)
	s.approxRescored.Add(20)
	s.approxLatency.Observe(0.0004)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	wallClock := regexp.MustCompile(`(?m)^(kgeserve_qps\{[^}]*\}|kgeserve_uptime_seconds) .*$`)
	if got := wallClock.ReplaceAllString(rec.Body.String(), "$1 <wall-clock>"); got != wantServeExposition {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, wantServeExposition)
	}
}

const wantServeExposition = `kgeserve_requests_total{endpoint="neighbors"} 0
kgeserve_errors_total{endpoint="neighbors"} 0
kgeserve_cancelled_total{endpoint="neighbors"} 0
kgeserve_qps{endpoint="neighbors"} <wall-clock>
kgeserve_neighbors_latency_seconds_bucket{le="0.0001"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.00025"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.0005"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.001"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.0025"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.005"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.01"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.025"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.05"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.1"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.25"} 0
kgeserve_neighbors_latency_seconds_bucket{le="0.5"} 0
kgeserve_neighbors_latency_seconds_bucket{le="1"} 0
kgeserve_neighbors_latency_seconds_bucket{le="2.5"} 0
kgeserve_neighbors_latency_seconds_bucket{le="5"} 0
kgeserve_neighbors_latency_seconds_bucket{le="10"} 0
kgeserve_neighbors_latency_seconds_bucket{le="+Inf"} 0
kgeserve_neighbors_latency_seconds_sum 0
kgeserve_neighbors_latency_seconds_count 0
kgeserve_requests_total{endpoint="predict"} 2
kgeserve_errors_total{endpoint="predict"} 0
kgeserve_cancelled_total{endpoint="predict"} 0
kgeserve_qps{endpoint="predict"} <wall-clock>
kgeserve_predict_latency_seconds_bucket{le="0.0001"} 0
kgeserve_predict_latency_seconds_bucket{le="0.00025"} 0
kgeserve_predict_latency_seconds_bucket{le="0.0005"} 0
kgeserve_predict_latency_seconds_bucket{le="0.001"} 0
kgeserve_predict_latency_seconds_bucket{le="0.0025"} 0
kgeserve_predict_latency_seconds_bucket{le="0.005"} 0
kgeserve_predict_latency_seconds_bucket{le="0.01"} 0
kgeserve_predict_latency_seconds_bucket{le="0.025"} 0
kgeserve_predict_latency_seconds_bucket{le="0.05"} 0
kgeserve_predict_latency_seconds_bucket{le="0.1"} 0
kgeserve_predict_latency_seconds_bucket{le="0.25"} 0
kgeserve_predict_latency_seconds_bucket{le="0.5"} 0
kgeserve_predict_latency_seconds_bucket{le="1"} 1
kgeserve_predict_latency_seconds_bucket{le="2.5"} 1
kgeserve_predict_latency_seconds_bucket{le="5"} 1
kgeserve_predict_latency_seconds_bucket{le="10"} 1
kgeserve_predict_latency_seconds_bucket{le="+Inf"} 2
kgeserve_predict_latency_seconds_sum 20.7
kgeserve_predict_latency_seconds_count 2
kgeserve_requests_total{endpoint="reload"} 0
kgeserve_errors_total{endpoint="reload"} 0
kgeserve_cancelled_total{endpoint="reload"} 0
kgeserve_qps{endpoint="reload"} <wall-clock>
kgeserve_reload_latency_seconds_bucket{le="0.0001"} 0
kgeserve_reload_latency_seconds_bucket{le="0.00025"} 0
kgeserve_reload_latency_seconds_bucket{le="0.0005"} 0
kgeserve_reload_latency_seconds_bucket{le="0.001"} 0
kgeserve_reload_latency_seconds_bucket{le="0.0025"} 0
kgeserve_reload_latency_seconds_bucket{le="0.005"} 0
kgeserve_reload_latency_seconds_bucket{le="0.01"} 0
kgeserve_reload_latency_seconds_bucket{le="0.025"} 0
kgeserve_reload_latency_seconds_bucket{le="0.05"} 0
kgeserve_reload_latency_seconds_bucket{le="0.1"} 0
kgeserve_reload_latency_seconds_bucket{le="0.25"} 0
kgeserve_reload_latency_seconds_bucket{le="0.5"} 0
kgeserve_reload_latency_seconds_bucket{le="1"} 0
kgeserve_reload_latency_seconds_bucket{le="2.5"} 0
kgeserve_reload_latency_seconds_bucket{le="5"} 0
kgeserve_reload_latency_seconds_bucket{le="10"} 0
kgeserve_reload_latency_seconds_bucket{le="+Inf"} 0
kgeserve_reload_latency_seconds_sum 0
kgeserve_reload_latency_seconds_count 0
kgeserve_requests_total{endpoint="score"} 3
kgeserve_errors_total{endpoint="score"} 1
kgeserve_cancelled_total{endpoint="score"} 0
kgeserve_qps{endpoint="score"} <wall-clock>
kgeserve_score_latency_seconds_bucket{le="0.0001"} 0
kgeserve_score_latency_seconds_bucket{le="0.00025"} 1
kgeserve_score_latency_seconds_bucket{le="0.0005"} 1
kgeserve_score_latency_seconds_bucket{le="0.001"} 1
kgeserve_score_latency_seconds_bucket{le="0.0025"} 1
kgeserve_score_latency_seconds_bucket{le="0.005"} 2
kgeserve_score_latency_seconds_bucket{le="0.01"} 2
kgeserve_score_latency_seconds_bucket{le="0.025"} 2
kgeserve_score_latency_seconds_bucket{le="0.05"} 2
kgeserve_score_latency_seconds_bucket{le="0.1"} 2
kgeserve_score_latency_seconds_bucket{le="0.25"} 2
kgeserve_score_latency_seconds_bucket{le="0.5"} 2
kgeserve_score_latency_seconds_bucket{le="1"} 2
kgeserve_score_latency_seconds_bucket{le="2.5"} 2
kgeserve_score_latency_seconds_bucket{le="5"} 2
kgeserve_score_latency_seconds_bucket{le="10"} 2
kgeserve_score_latency_seconds_bucket{le="+Inf"} 2
kgeserve_score_latency_seconds_sum 0.0032
kgeserve_score_latency_seconds_count 2
kgeserve_batch_size_bucket{le="1"} 1
kgeserve_batch_size_bucket{le="2"} 1
kgeserve_batch_size_bucket{le="4"} 2
kgeserve_batch_size_bucket{le="8"} 3
kgeserve_batch_size_bucket{le="16"} 3
kgeserve_batch_size_bucket{le="32"} 3
kgeserve_batch_size_bucket{le="64"} 3
kgeserve_batch_size_bucket{le="128"} 3
kgeserve_batch_size_bucket{le="256"} 3
kgeserve_batch_size_bucket{le="512"} 3
kgeserve_batch_size_bucket{le="1024"} 3
kgeserve_batch_size_bucket{le="+Inf"} 3
kgeserve_batch_size_sum 12
kgeserve_batch_size_count 3
kgeserve_approx_requests_total 2
kgeserve_approx_candidates_total 64
kgeserve_approx_rescored_total 20
kgeserve_approx_latency_seconds_bucket{le="0.0001"} 0
kgeserve_approx_latency_seconds_bucket{le="0.00025"} 0
kgeserve_approx_latency_seconds_bucket{le="0.0005"} 1
kgeserve_approx_latency_seconds_bucket{le="0.001"} 1
kgeserve_approx_latency_seconds_bucket{le="0.0025"} 1
kgeserve_approx_latency_seconds_bucket{le="0.005"} 1
kgeserve_approx_latency_seconds_bucket{le="0.01"} 1
kgeserve_approx_latency_seconds_bucket{le="0.025"} 1
kgeserve_approx_latency_seconds_bucket{le="0.05"} 1
kgeserve_approx_latency_seconds_bucket{le="0.1"} 1
kgeserve_approx_latency_seconds_bucket{le="0.25"} 1
kgeserve_approx_latency_seconds_bucket{le="0.5"} 1
kgeserve_approx_latency_seconds_bucket{le="1"} 1
kgeserve_approx_latency_seconds_bucket{le="2.5"} 1
kgeserve_approx_latency_seconds_bucket{le="5"} 1
kgeserve_approx_latency_seconds_bucket{le="10"} 1
kgeserve_approx_latency_seconds_bucket{le="+Inf"} 1
kgeserve_approx_latency_seconds_sum 0.0004
kgeserve_approx_latency_seconds_count 1
kgeserve_cache_hits_total 0
kgeserve_cache_misses_total 0
kgeserve_cache_entries 0
kgeserve_cache_hit_ratio 0.0000
kgeserve_reloads_total 0
kgeserve_store_entities 30
kgeserve_store_relations 4
kgeserve_store_shards 4
kgeserve_store_packed_bytes 240
kgeserve_uptime_seconds <wall-clock>
`
