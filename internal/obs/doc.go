// Package obs is the observability layer: request-scoped context
// propagation, in-process span tracing, and the clock boundary that
// keeps the deterministic core wall-clock-free.
//
// The paper's contribution is a latency decomposition — where a
// parallel job's time goes between useful work, checkpoint cost C,
// downtime D and recovery R — and this package lets the serving stack
// answer the same question about itself. Every hot path records spans,
// and the span names map onto the paper's cost terms:
//
//   - "advisor.replan" is the cost of consulting the policy for a fresh
//     decision — the serving-side analogue of deciding ω (the next
//     chunk) after a failure. Its "warm" attribute separates the cold
//     first plan (Algorithm 2 solved from scratch) from warm-start
//     re-plans off the previous plan's memo, mirroring the paper's
//     distinction between building the DP and walking it.
//   - "store.append" + "store.fsync" are the checkpoint cost C of the
//     serving tier itself: the durable journaling a decision pays
//     before it is acknowledged, exactly like a checkpoint paying C
//     before work may proceed.
//   - "store.replay" is recovery R: rebuilding a session's state from
//     its log after a crash, the replay-is-recovery contract.
//   - "advisor.observe" ingests downtime/recovery events (D and R as
//     reported by the platform) into the session state machine.
//   - "engine.cell" and "engine.cache" attribute evaluation latency to
//     simulation work vs. artifact (DP table, planner, trace set)
//     construction, and the cache attribute separates pay-once builds
//     from hits — the engine's own C-vs-work split.
//
// # Clock discipline
//
// All wall-clock access goes through the Clock interface. NewRealClock
// is the only sanctioned time.Now call site in the module — the
// chkpt-vet determinism analyzer enforces this mechanically (time.Now
// is permitted only inside the real clock's Now method; every other
// package takes an injected Clock). Tests inject a FakeClock so traced
// durations, request ids and TTLs are deterministic.
//
// # Context propagation
//
// WithRequestID/RequestID carry the per-request correlation id minted
// by the service middleware; WithTracer/TracerFrom carry the process
// tracer. StartSpan reads both from the context, so the deterministic
// core can be instrumented without knowing about HTTP: a package that
// is handed a context records spans if and only if the caller attached
// a tracer, and records nothing (with zero allocations on the span
// path) otherwise. Detach copies the observability values onto a fresh
// context so detached work (coalesced evaluations, background sweep
// runners) stays correlated without inheriting cancellation.
//
// # Metrics
//
// Registry is the one metrics surface of the serving processes:
// counters, fixed-bucket histograms, labeled vectors of both, and
// counter/gauge funcs over values another component owns (store.Stats,
// engine.CacheStats), snapshotted once per scrape by OnScrape. WriteTo
// renders families in registration order and each family's series
// sorted by label values, never in map order, so a scrape is a
// deterministic function of the recorded values. Histogram buckets are
// allocated with the series, so a scrape before the first observation
// shows every bucket and Observe allocates nothing.
//
// Spans reach histograms through the tracer's OnEnd hook, on
// SpanBuckets:
//
//   - chkpt-serve: advisor.replan → chkpt_replan_seconds{warm},
//     engine.cell → chkpt_engine_cell_seconds, engine.cache →
//     chkpt_engine_cache_seconds{result}, store.rpc →
//     chkpt_remote_store_rpc_seconds{op,result}, and, with a local
//     store, store.fsync and store.replay → chkpt_store_fsync_seconds
//     (C) and chkpt_store_replay_seconds (R).
//   - chkpt-store: store.fsync and store.replay → the same C and R
//     histograms, registered by the same store.RegisterMetrics. Under
//     chkpt-serve -store every fsync and replay happens there.
package obs
