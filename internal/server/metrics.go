package server

import (
	"net/http"
	"time"

	"tetrisjoin/internal/catalog"
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/durable"
	"tetrisjoin/internal/metrics"
)

// serverMetrics is the server's observability surface: the registry
// behind /metrics plus the few instruments hot paths update directly.
// Everything the server and catalog already count atomically is
// exported through CounterFunc/GaugeFunc mirrors — scrapes read the
// live atomics, so the serving path pays nothing for them.
type serverMetrics struct {
	reg *metrics.Registry

	// Accumulated from successful responses on the session loop.
	resolutions *metrics.Counter
	outputs     *metrics.Counter

	// Overload-protection outcomes.
	shed          *metrics.Counter
	slowConsumers *metrics.Counter
	drainRejects  *metrics.Counter
	overlong      *metrics.Counter

	// Latency: queue wait on admission, request handling by op, and
	// engine execution by version-free query shape (fed by the catalog's
	// exec observer).
	queueWait      *metrics.Histogram
	requestSeconds *metrics.HistogramVec
	execSeconds    *metrics.HistogramVec
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg}

	reg.CounterFunc("tetris_sessions_total", "Lifetime protocol sessions.",
		func() float64 { return float64(s.sessions.Load()) })
	reg.GaugeFunc("tetris_open_sessions", "Currently open protocol sessions.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.open)
		})
	reg.CounterFunc("tetris_queries_total", "Lifetime engine executions (query/exec/count).",
		func() float64 { return float64(s.queries.Load()) })
	reg.CounterFunc("tetris_panics_total", "Requests that panicked in a handler and were contained.",
		func() float64 { return float64(s.panics.Load()) })

	cat := func(get func(catalog.Stats) float64) func() float64 {
		return func() float64 { return get(s.cat.Stats()) }
	}
	reg.GaugeFunc("tetris_relations", "Relations registered in the catalog.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.Relations) }))
	reg.CounterFunc("tetris_index_builds_total", "Lifetime index constructions, full builds plus delta layers.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.IndexBuilds) }))
	reg.CounterFunc("tetris_delta_index_builds_total", "Index builds that were O(delta) layers over a prior version.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.DeltaIndexBuilds) }))
	reg.CounterFunc("tetris_compactions_total", "Background delta-chain folds.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.Compactions) }))
	reg.GaugeFunc("tetris_plans_cached", "Plans currently live in the plan cache.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.PlansCached) }))
	reg.CounterFunc("tetris_plan_hits_total", "Preparations served from the plan cache.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.PlanHits) }))
	reg.CounterFunc("tetris_plan_misses_total", "Preparations that had to plan and build.",
		cat(func(cs catalog.Stats) float64 { return float64(cs.PlanMisses) }))

	m.resolutions = reg.Counter("tetris_resolutions_total",
		"Geometric resolutions spent by successful requests.")
	m.outputs = reg.Counter("tetris_outputs_total",
		"Output tuples delivered by successful requests.")

	// Work-stealing executor telemetry: process-wide atomics maintained
	// by internal/core across every in-flight parallel run.
	reg.CounterFunc("tetris_shard_steals_total",
		"Dynamic shard splits performed by the work-stealing executor.",
		func() float64 { return float64(core.StealsTotal()) })
	reg.GaugeFunc("tetris_worker_busy",
		"Executor workers currently running a shard fragment.",
		func() float64 { return float64(core.BusyWorkers()) })

	reg.GaugeFunc("tetris_admission_running", "Executions holding an engine slot right now.",
		func() float64 { return float64(len(s.admit)) })
	reg.GaugeFunc("tetris_admission_queue_depth", "Executions waiting for an engine slot right now.",
		func() float64 { return float64(s.waiting.Load()) })
	m.shed = reg.Counter("tetris_admission_shed_total",
		"Executions fast-failed with \"overloaded\" because the wait queue was full.")
	m.slowConsumers = reg.Counter("tetris_slow_consumers_total",
		"Sessions disconnected for not draining their output within the stall budget.")
	m.drainRejects = reg.Counter("tetris_drain_rejects_total",
		"Requests rejected because they arrived while the server was draining.")
	m.overlong = reg.Counter("tetris_overlong_requests_total",
		"Request lines over the protocol cap, answered with an error and closed.")

	m.queueWait = reg.HistogramVec("tetris_admission_wait_seconds",
		"Time an admitted execution spent waiting for an engine slot.").With()
	m.requestSeconds = reg.HistogramVec("tetris_request_seconds",
		"Request handling latency by protocol op.", "op")
	m.execSeconds = reg.HistogramVec("tetris_exec_seconds",
		"Engine execution latency by version-free query shape and kind (exec/count/maintained).",
		"shape", "kind")
	return m
}

// registerWAL adds the WAL instruments; called only by NewDurable, so
// an in-memory /metrics page shows no phantom zero series.
func (m *serverMetrics) registerWAL(wal func() durable.WALStats) {
	m.reg.GaugeFunc("tetris_wal_last_lsn", "Last durably acknowledged WAL LSN.",
		func() float64 { return float64(wal().LastLSN) })
	m.reg.GaugeFunc("tetris_wal_size_bytes", "Current write-ahead log size.",
		func() float64 { return float64(wal().WALSize) })
	m.reg.GaugeFunc("tetris_wal_records_since_checkpoint",
		"WAL records appended since the last checkpoint: the replay-lag bound.",
		func() float64 { return float64(wal().SinceCheckpoint) })
	m.reg.CounterFunc("tetris_checkpoints_total", "Checkpoints taken.",
		func() float64 { return float64(wal().Checkpoints) })
}

// knownOps bounds the op label set so a client sending junk ops cannot
// mint unbounded label values; anything else lands under "other".
var knownOps = map[string]bool{
	"load": true, "append": true, "delete": true, "query": true,
	"prepare": true, "maintain": true, "exec": true, "stats": true,
	"close": true,
}

func opLabel(op string) string {
	if knownOps[op] {
		return op
	}
	return "other"
}

// MetricsRegistry exposes the server's metrics registry, e.g. to attach
// process-level instruments before serving /metrics.
func (s *Server) MetricsRegistry() *metrics.Registry { return s.met.reg }

// MetricsHandler serves the registry in Prometheus text exposition
// format; mount it at /metrics.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
}

// observeExec is the catalog's execution observer: every prepared /
// charged / maintained execution lands here with its version-free shape
// label, building the per-shape latency histograms.
func (s *Server) observeExec(shape, kind string, seconds float64) {
	s.met.execSeconds.With(shape, kind).Observe(time.Duration(seconds * float64(time.Second)))
}
