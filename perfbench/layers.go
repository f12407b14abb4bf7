package main

import (
	"time"
)

// cacheDelta is the engine cache's lookups over the traced window.
type cacheDelta struct{ hits, misses uint64 }

// layerMetrics turns the traced window's spans into the per-layer
// metrics. A layer's self time is its span time minus the time of the
// spans it caused in the layer below. Spans of the benchmark's own ops
// share their op's request id; the sweep runner's store calls run in
// the background without one and count in the store-side sums only.
func layerMetrics(spans []span, win *window, cellsPerOp int, cd cacheDelta) map[string]metric {
	ops := float64(win.attempted)
	keyed := map[string]time.Duration{} // per layer, spans of the window's ops
	all := map[string]time.Duration{}   // per layer, every span
	var (
		storeCalls, storeErrs, durable   int
		respBytes                        int64
		storeAppend, storeReplay, storeP []time.Duration
		fsAppend, fsReplay               []time.Duration
		fsSpans                          []span
	)
	for _, s := range spans {
		all[s.Layer] += s.dur()
		if win.rids[s.RID] {
			keyed[s.Layer] += s.dur()
		}
		switch s.Layer {
		case layerStore:
			storeCalls++
			if s.Err {
				storeErrs++
			}
			switch {
			case appendOps[s.Op]:
				storeAppend = append(storeAppend, s.dur())
			case s.Op == "Replay":
				storeReplay = append(storeReplay, s.dur())
			case s.Op == "PutLeased":
				storeP = append(storeP, s.dur())
			}
		case layerStoreSrv:
			respBytes += s.Bytes
		case layerFileStore:
			fsSpans = append(fsSpans, s)
			if durableOps[s.Op] {
				durable++
			}
			switch {
			case appendOps[s.Op]:
				fsAppend = append(fsAppend, s.dur())
			case s.Op == "Replay":
				fsReplay = append(fsReplay, s.dur())
			}
		}
	}
	perOpUS := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / ops }
	m := map[string]metric{
		"client.self_us":                  {perOpUS(keyed[layerClient] - keyed[layerLB]), "us"},
		"lb.self_us":                      {perOpUS(keyed[layerLB] - keyed[layerServe]), "us"},
		"serve.self_us":                   {perOpUS(keyed[layerServe] - keyed[layerStore]), "us"},
		"store.calls_per_op":              {float64(storeCalls) / ops, "count"},
		"store.append_us":                 {meanUS(storeAppend), "us"},
		"store.replay_ms":                 {meanUS(storeReplay) / 1000, "ms"},
		"store.put_leased_us":             {meanUS(storeP), "us"},
		"store.errors":                    {float64(storeErrs), "count"},
		"wire.self_us":                    {perOpUS(all[layerStore] - all[layerStoreSrv]), "us"},
		"wire.resp_kb_per_op":             {float64(respBytes) / 1024 / ops, "KiB"},
		"storesrv.self_us":                {perOpUS(all[layerStoreSrv] - all[layerFileStore]), "us"},
		"filestore.self_us":               {perOpUS(all[layerFileStore]), "us"},
		"filestore.durable_writes_per_op": {float64(durable) / ops, "count"},
		"filestore.append_us":             {meanUS(fsAppend), "us"},
		"filestore.busy_frac":             {float64(busyTime(fsSpans)) / float64(win.wall), "ratio"},
		"filestore.replay_ms":             {meanUS(fsReplay) / 1000, "ms"},
		"sweep.cells_per_s":               {float64(cellsPerOp) * ops / win.wall.Seconds(), "1/s"},
		"sweep.store_frac":                {float64(all[layerStore]) / float64(keyed[layerClient]), "ratio"},
		"engine.cache_hit_ratio":          {ratio(cd.hits, cd.hits+cd.misses), "ratio"},
		"go.alloc_kb_per_op":              {float64(win.allocB) / 1024 / ops, "KiB"},
		"go.gc_per_kop":                   {1000 * float64(win.gcs) / ops, "count"},
		"trace.mean_op_us":                {perOpUS(keyed[layerClient]), "us"},
	}
	return m
}

// selfSumRatio is the per-op self times of the given layers over the
// traced mean op latency. Over all six layers it is 1 when every op's
// spans nest as the wiring says; over the five program layers it shows
// how much of an op the program's own tiers account for.
func selfSumRatio(m map[string]metric, layers ...string) float64 {
	var sum float64
	for _, l := range layers {
		sum += m[l+".self_us"].Value
	}
	return sum / m["trace.mean_op_us"].Value
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(time.Microsecond) / float64(len(ds))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
