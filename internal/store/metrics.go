package store

import "repro/internal/obs"

// RegisterMetrics registers on r the store families chkpt-serve and
// chkpt-store both export, so the two processes carry the same series
// with the same help text: the fsync and replay histograms — the
// serving tier's checkpoint cost C and recovery cost R — and the
// backend's operation counters, read from stats once per scrape. The
// returned hook feeds the histograms from finished store.fsync and
// store.replay spans and ignores every other span; call it from the
// process tracer's OnEnd.
func RegisterMetrics(r *obs.Registry, stats func() Stats) (observeSpan func(obs.Span)) {
	fsync := r.Histogram("chkpt_store_fsync_seconds",
		"Durable-store fsync latency (the serving tier's checkpoint cost C).", obs.SpanBuckets)
	replay := r.Histogram("chkpt_store_replay_seconds",
		"Session-log replay latency (recovery cost R).", obs.SpanBuckets)
	var st Stats
	r.OnScrape(func() { st = stats() })
	for _, c := range []struct {
		name, help string
		v          *uint64
	}{
		{"chkpt_store_appends_total", "Session-log records durably appended.", &st.Appends},
		{"chkpt_store_replays_total", "Session logs replayed for recovery.", &st.Replays},
		{"chkpt_store_puts_total", "Result-store values written.", &st.Puts},
		{"chkpt_store_gets_total", "Result-store lookups (hits and misses).", &st.Gets},
		{"chkpt_store_lease_acquired_total", "Leases granted (fresh grants, reclaims and holder re-acquires).", &st.LeaseAcquired},
		{"chkpt_store_lease_renewed_total", "Lease renewals accepted under a matching fencing token.", &st.LeaseRenewed},
		{"chkpt_store_lease_released_total", "Leases released by their holder.", &st.LeaseReleased},
		{"chkpt_store_lease_reclaimed_total", "Expired leases taken over by a new owner.", &st.LeaseReclaimed},
		{"chkpt_store_lease_stale_total", "Lease operations fenced off with a stale token.", &st.LeaseStale},
	} {
		v := c.v
		r.CounterFunc(c.name, c.help, func() uint64 { return *v })
	}
	return func(s obs.Span) {
		switch s.Name {
		case "store.fsync":
			fsync.Observe(s.Duration.Seconds())
		case "store.replay":
			replay.Observe(s.Duration.Seconds())
		}
	}
}
