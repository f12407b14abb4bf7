package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// selfTestOps is how many ops the self-test runs per workload: enough to
// cover the failure batches and several sweep claims, small enough to
// take seconds.
var selfTestOps = map[string]int{"events-durable": 256, "replay-recover": 16, "sweep-job": 6}

// exactCounts are the per-op counts that must repeat exactly between
// two runs with one seed: they count work, not time.
var exactCounts = []string{"store.calls_per_op", "filestore.durable_writes_per_op", "wire.resp_kb_per_op", "sweep.cells_per_job"}

// selfTest runs each workload twice with seed 1 for a fixed op count,
// traced, and checks that the exact counts repeat. It prints them next
// to the values recorded in perfbench/baseline.json, the baseline later
// changes to the store API are measured against.
func selfTest(root, scratch string) error {
	recorded := map[string]map[string]float64{}
	if b, err := os.ReadFile(filepath.Join(root, "perfbench", "baseline.json")); err == nil {
		if err := json.Unmarshal(b, &recorded); err != nil {
			return fmt.Errorf("baseline.json: %w", err)
		}
	}
	out := map[string]map[string]float64{}
	for _, def := range workloads {
		first, err := countRun(def, scratch)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		second, err := countRun(def, scratch)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		for _, k := range exactCounts {
			if first[k] != second[k] {
				return fmt.Errorf("%s: %s is %v then %v with the same seed", def.name, k, first[k], second[k])
			}
			if want, ok := recorded[def.name][k]; ok && want != first[k] {
				fmt.Printf("%s: %s = %v, recorded baseline %v\n", def.name, k, first[k], want)
			}
		}
		out[def.name] = first
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func countRun(def workloadDef, scratch string) (map[string]float64, error) {
	ctx := context.Background()
	storeRoot := filepath.Join(scratch, "stores")
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	rec := newRecorder()
	s, err := newStack(storeRoot, rec, clients)
	if err != nil {
		return nil, err
	}
	defer s.close()
	w := def.make(1)
	if _, err := w.prepare(ctx, s); err != nil {
		return nil, err
	}
	rec.on.Store(true)
	win := measure(ctx, w, clients, 0, selfTestOps[def.name], "t-", rec, nil)
	s.settle()
	rec.on.Store(false)
	if win.failed > 0 {
		return nil, win.firstErr
	}
	if err := w.verify(ctx); err != nil {
		return nil, err
	}
	spans := rec.take()
	lm := layerMetrics(spans, win, w.cellsPerOp(), cacheDelta{})
	var cells int
	for _, sp := range spans {
		if sp.Layer == layerFileStore && sp.Op == "PutLeased" {
			cells++
		}
	}
	counts := map[string]float64{"sweep.cells_per_job": float64(cells) / float64(win.attempted)}
	for _, k := range exactCounts[:3] {
		counts[k] = lm[k].Value
	}
	return counts, nil
}
