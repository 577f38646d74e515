package server

import (
	"net/http"

	"pruner"
	"pruner/internal/costmodel"
	"pruner/internal/obs"
	"pruner/internal/schedule"
)

// Metric names the daemon exports on its registry. /v1/healthz is built
// by reading these back through the same registry /metrics scrapes, so
// the two surfaces can never disagree.
const (
	// MetricQueueDepth gauges jobs waiting on the bounded queue
	// (func-backed; sampled at scrape).
	MetricQueueDepth = "pruner_server_queue_depth"
	// MetricQueueWaitSeconds is a histogram of queued-to-started wait.
	MetricQueueWaitSeconds = "pruner_server_queue_wait_seconds"
	// MetricJobs gauges jobs by lifecycle state (label: state).
	MetricJobs = "pruner_server_jobs"
	// MetricJobPanics counts jobs failed by a panic in their session.
	MetricJobPanics = "pruner_server_job_panics_total"
	// MetricRoundSeconds is a histogram of wall-clock round duration as
	// seen at the commit boundary (the value RoundMillis reports).
	MetricRoundSeconds = "pruner_server_round_seconds"
	// MetricSSEStreams gauges open /v1/jobs/{id}/events subscribers.
	MetricSSEStreams = "pruner_server_sse_streams"
	// MetricSSEEvents counts SSE frames written to subscribers.
	MetricSSEEvents = "pruner_server_sse_events_total"
	// MetricMeasurersRegistered / MetricMeasurersLive gauge the measurer
	// registry (func-backed; live honours Config.MeasurerTTL).
	MetricMeasurersRegistered = "pruner_server_measurers_registered"
	MetricMeasurersLive       = "pruner_server_measurers_live"
	// MetricMemoParkedBytes gauges the chunk storage the process's parked
	// round, fit and measurement memos keep for reuse
	// (schedule.ParkedBytes; func-backed).
	MetricMemoParkedBytes = "pruner_memo_parked_bytes"
	// MetricScratchParkedBytes gauges the buffer storage the process's
	// parked cost-model arenas keep for reuse
	// (costmodel.ParkedScratchBytes; func-backed).
	MetricScratchParkedBytes = "pruner_scratch_parked_bytes"
)

// serverObs is the daemon's prepared instrument set.
type serverObs struct {
	jobStates    *obs.GaugeVec
	jobPanics    *obs.Counter
	queueWait    *obs.Histogram
	roundSeconds *obs.Histogram
	sseStreams   *obs.Gauge
	sseEvents    *obs.Counter
}

// initObs registers the daemon's instruments on its observer, arms the
// store (idempotent when the store was already opened with a registry)
// and exposes the nn engine counters. Called once from New, after the
// queue exists: the depth gauge samples it live.
func (s *Server) initObs() {
	reg := s.cfg.Obs.Reg()
	s.obs = serverObs{
		jobStates: reg.GaugeVec(MetricJobs, "Jobs by lifecycle state.", "state"),
		jobPanics: reg.Counter(MetricJobPanics, "Jobs failed by a panic in their session."),
		queueWait: reg.Histogram(MetricQueueWaitSeconds,
			"Wait between job enqueue and tuning start.", nil),
		roundSeconds: reg.Histogram(MetricRoundSeconds,
			"Wall-clock duration of committed tuning rounds.", nil),
		sseStreams: reg.Gauge(MetricSSEStreams, "Open SSE progress subscribers."),
		sseEvents:  reg.Counter(MetricSSEEvents, "SSE frames written to subscribers."),
	}
	reg.GaugeFunc(MetricQueueDepth, "Jobs waiting on the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc(MetricMeasurersRegistered, "Measurement workers registered.",
		func() float64 {
			s.mmu.Lock()
			defer s.mmu.Unlock()
			return float64(len(s.measurers))
		})
	reg.GaugeFunc(MetricMeasurersLive, "Measurement workers within their heartbeat TTL.",
		func() float64 { return float64(len(s.liveMeasurerURLs())) })
	reg.GaugeFunc(MetricMemoParkedBytes, "Bytes of chunk storage held by parked memos.",
		func() float64 { return float64(schedule.ParkedBytes()) })
	reg.GaugeFunc(MetricScratchParkedBytes, "Bytes of buffer storage held by parked cost-model arenas.",
		func() float64 { return float64(costmodel.ParkedScratchBytes()) })
	s.cfg.Store.EnableMetrics(reg)
	pruner.RegisterEngineMetrics(s.cfg.Obs)
}

// handleMetrics is GET /metrics: Prometheus text exposition of the
// daemon's registry (server, store, tuner, cost-model and fleet families).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Obs.Reg().WriteText(w) // scrape write failure is the scraper's problem
}

// handleTrace is GET /v1/trace: the observer's span ring buffer as JSON,
// newest spans retained (plan/measure/commit and cost-model fit/predict).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Obs.Sink().WriteJSON(w) // trace dump is diagnostic; a short read hurts nobody
}
