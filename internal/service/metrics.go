package service

import (
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// latencyBuckets are the histogram upper bounds in seconds. Evaluations
// range from milliseconds (cache-hot single cells) to minutes (cold
// paper-scale sweeps), so the buckets are log-spaced across that span.
var latencyBuckets = []float64{0.005, 0.02, 0.1, 0.5, 2, 10, 60}

// remoteStoreOps mirrors the remote store wire protocol's operation
// names so every {op,result} series of
// chkpt_remote_store_rpc_seconds renders from the first scrape, before
// (or without) any RPC. An op this list doesn't know — a protocol
// extension — still gets a series lazily on its first observation.
var remoteStoreOps = []string{
	"created", "event", "advised", "tombstone", "replay",
	"put", "get", "put-leased",
	"lease-acquire", "lease-renew", "lease-release", "stats",
}

// metrics are the server's series on its /metrics registry. Call sites
// increment them directly; values other components own (store and
// engine-cache counters) are read at scrape time, and the session store
// registers its own.
type metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec   // {path,code}
	latency  *obs.HistogramVec // {path}

	// Span-fed stage histograms (see observeSpan).
	replanCold, replanWarm, engineCell, engineHit, engineMiss *obs.Histogram
	remoteRPC                                                 *obs.HistogramVec // {op,result}
	storeSpan                                                 func(obs.Span)

	coalesceRuns, coalesceHits, rejected, sweepCancelled, decisions            *obs.Counter
	sweepJobsCreated, sweepJobsResumed, sweepCellsComputed, sweepCellsRestored *obs.Counter
}

func newMetrics(eng *engine.Engine, st store.Store) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:      r,
		requests: r.CounterVec("chkpt_requests_total", "Finished HTTP requests by path and status code.", "path", "code"),
		latency:  r.HistogramVec("chkpt_request_duration_seconds", "Request latency by path.", latencyBuckets, "path"),
	}
	replan := r.HistogramVec("chkpt_replan_seconds",
		"Advisor policy consultations by warmth: cold plans build the DP, warm re-plans walk the memo.",
		obs.SpanBuckets, "warm")
	m.replanCold, m.replanWarm = replan.With("false"), replan.With("true")
	m.engineCell = r.Histogram("chkpt_engine_cell_seconds",
		"Engine cell evaluation latency inside Run/Stream worker loops.", obs.SpanBuckets)
	cache := r.HistogramVec("chkpt_engine_cache_seconds",
		"Engine artifact resolution latency by cache outcome (misses pay the build).", obs.SpanBuckets, "result")
	m.engineHit, m.engineMiss = cache.With("hit"), cache.With("miss")
	m.remoteRPC = r.HistogramVec("chkpt_remote_store_rpc_seconds",
		"Remote store RPC latency by wire operation and outcome (per call, across retries).",
		obs.SpanBuckets, "op", "result")
	for _, op := range remoteStoreOps {
		m.remoteRPC.With(op, "ok")
		m.remoteRPC.With(op, "error")
	}

	m.coalesceRuns = r.Counter("chkpt_coalesce_runs_total", "Coalesced evaluations actually executed.")
	m.coalesceHits = r.Counter("chkpt_coalesce_hits_total", "Requests served by joining another request's evaluation.")
	m.rejected = r.Counter("chkpt_admission_rejected_total", "Requests shed by the admission queue (429).")
	m.sweepCancelled = r.Counter("chkpt_sweep_cancelled_total", "Sweeps terminated by client cancellation.")
	m.decisions = r.Counter("chkpt_session_decisions_total", "Advisor decisions served over /v1/sessions.")
	m.sweepJobsCreated = r.Counter("chkpt_sweep_jobs_created_total", "Durable sweep jobs journaled via POST /v1/sweeps.")
	m.sweepJobsResumed = r.Counter("chkpt_sweep_jobs_resumed_total", "Sweep-job submissions or loads that found an existing job.")
	m.sweepCellsComputed = r.Counter("chkpt_sweep_cells_computed_total", "Sweep-job cells evaluated by the runners.")
	m.sweepCellsRestored = r.Counter("chkpt_sweep_cells_restored_total", "Sweep-job cells recovered from the result store without re-running.")
	m.storeSpan = store.RegisterMetrics(r, st.Stats)

	if eng.Cache() != nil {
		var cs engine.CacheStats
		r.OnScrape(func() { cs, _ = eng.CacheStats() })
		r.CounterFunc("chkpt_engine_cache_hits_total", "Engine artifact cache hits.", func() uint64 { return cs.Hits })
		r.CounterFunc("chkpt_engine_cache_misses_total", "Engine artifact cache misses.", func() uint64 { return cs.Misses })
		r.CounterFunc("chkpt_engine_cache_evictions_total", "Engine artifact cache LRU evictions.", func() uint64 { return cs.Evictions })
		r.GaugeFunc("chkpt_engine_cache_entries", "Live engine cache entries.", func() int64 { return int64(cs.Entries) })
		r.GaugeFunc("chkpt_engine_cache_bytes", "Estimated engine cache footprint in bytes.", func() int64 { return cs.Bytes })
		r.GaugeFunc("chkpt_engine_cache_budget_bytes", "Engine cache eviction threshold in bytes.", func() int64 { return cs.Budget })
	}
	return m
}

// observeSpan feeds a finished span into the stage histograms. It is the
// tracer's OnEnd hook, so every traced stage is summarized on /metrics
// whether or not anyone reads /v1/debug/traces.
func (m *metrics) observeSpan(s obs.Span) {
	sec := s.Duration.Seconds()
	switch s.Name {
	case "advisor.replan":
		if spanAttr(s, "warm") == "true" {
			m.replanWarm.Observe(sec)
		} else {
			m.replanCold.Observe(sec)
		}
	case "engine.cell":
		m.engineCell.Observe(sec)
	case "engine.cache":
		if spanAttr(s, "cache") == "hit" {
			m.engineHit.Observe(sec)
		} else {
			m.engineMiss.Observe(sec)
		}
	case "store.rpc":
		if op, result := spanAttr(s, "op"), spanAttr(s, "result"); op != "" && result != "" {
			m.remoteRPC.With(op, result).Observe(sec)
		}
	default:
		m.storeSpan(s)
	}
}

// spanAttr returns the span's value for key ("" when absent).
func spanAttr(s obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
