package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
)

// sweep-job: one op is one POST /v1/sweeps of a small Weibull
// table-style experiment (periodic, DPNextFailure and DPMakespan
// candidates) and its GET /v1/sweeps/{id} stream up to the trailer,
// which the server sends only once every cell is durable. Every job has
// its own seed, so the content-addressed result store never answers a
// job from an earlier one.
// sweepWarmJobs is the warm-up jobs per client: enough to fill the
// engine cache to its budget (stackCacheBudget).
const sweepWarmJobs = 16

type sweepWorkload struct {
	seed    uint64
	client  *http.Client
	lb      string
	fs      *store.FileStore
	jobs    atomic.Uint64
	leases0 uint64

	mu       sync.Mutex // guards the reference job
	refSpec  []byte
	refCells [][]byte
	haveRef  bool
}

func newSweepWorkload(seed uint64) workload { return &sweepWorkload{seed: seed} }

// sweepSpec is the experiment of one job: four cells (MTBF of a quarter
// of a day up to two days on one Weibull k = 0.7 processor), sixteen
// traces each.
func sweepSpec(seed uint64) *spec.ExperimentSpec {
	return &spec.ExperimentSpec{
		Name: "bench-sweep",
		Scenario: &spec.ScenarioSpec{
			Name:     "oneproc-weibull",
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
			Horizon:  40 * 86400,
			Traces:   16,
			Seed:     seed,
		},
		Grid: &spec.GridSpec{MTBF: []float64{21600, 43200, 86400, 172800}},
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: 30,
			DPMakespanQuanta:    30,
		}},
	}
}

const sweepCells = 4

func (w *sweepWorkload) cellsPerOp() int { return sweepCells }

// jobSeed derives job j's scenario seed from the workload seed
// (splitmix64), so every job computes fresh cells.
func jobSeed(seed, j uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + j + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31) | 1
}

func (w *sweepWorkload) prepare(ctx context.Context, s *stack) (int, error) {
	w.client, w.fs = s.client, s.fs
	replica, _, err := s.addReplica()
	if err != nil {
		return 0, err
	}
	if w.lb, err = s.addLB([]string{replica}); err != nil {
		return 0, err
	}
	n := s.clientConns
	if win := measure(ctx, w, n, 0, sweepWarmJobs*n, "warm-", nil, nil); win.failed > 0 {
		return 0, fmt.Errorf("warm-up: %w", win.firstErr)
	}
	// The warm-up's last runners release their claims after their
	// streams end; let them, so the window starts idle.
	s.settle()
	w.leases0 = w.fs.Stats().LeaseAcquired
	return sweepWarmJobs * n, nil
}

func (w *sweepWorkload) op(ctx context.Context, _ int, rid string) error {
	j := w.jobs.Add(1) - 1
	body, err := json.Marshal(sweepSpec(jobSeed(w.seed, j)))
	if err != nil {
		return err
	}
	code, b, err := do(ctx, w.client, http.MethodPost, w.lb+"/v1/sweeps", rid, body)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("job %d: create status %d: %s", j, code, b)
	}
	var job service.SweepJobResponse
	if err := json.Unmarshal(b, &job); err != nil {
		return err
	}
	if job.Cells != sweepCells {
		return fmt.Errorf("job %d: %d cells, want %d", j, job.Cells, sweepCells)
	}
	code, b, err = do(ctx, w.client, http.MethodGet, w.lb+"/v1/sweeps/"+job.ID, rid, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job %d: stream status %d: %s", j, code, b)
	}
	cells, err := checkStream(b, sweepCells)
	if err != nil {
		return fmt.Errorf("job %d: %w", j, err)
	}
	w.mu.Lock()
	if !w.haveRef {
		w.haveRef, w.refSpec, w.refCells = true, body, cells
	}
	w.mu.Unlock()
	return nil
}

// checkStream splits an NDJSON sweep stream into its cell lines and
// checks the trailer and the cell order.
func checkStream(b []byte, want int) ([][]byte, error) {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	if len(lines) != want+1 {
		return nil, fmt.Errorf("stream has %d lines, want %d cells and a trailer", len(lines), want)
	}
	var tr service.SweepTrailer
	if err := json.Unmarshal(lines[want], &tr); err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if !tr.Done || tr.Cells != want || tr.Error != "" {
		return nil, fmt.Errorf("trailer %s", lines[want])
	}
	for i, l := range lines[:want] {
		var c service.Cell
		if err := json.Unmarshal(l, &c); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if c.Index != i || len(c.Rows) == 0 {
			return nil, fmt.Errorf("cell line %d has index %d and %d rows", i, c.Index, len(c.Rows))
		}
	}
	return lines[:want], nil
}

// verify re-runs one job's spec through the golden-pinned streaming
// POST /v1/sweep and checks its cell lines equal the job's, and that
// the jobs ran on the leased path.
func (w *sweepWorkload) verify(ctx context.Context) error {
	if got := w.fs.Stats().LeaseAcquired - w.leases0; got == 0 {
		return fmt.Errorf("no sweep lease acquired: the jobs bypassed the leased runner")
	}
	w.mu.Lock()
	refSpec, refCells, ok := w.refSpec, w.refCells, w.haveRef
	w.mu.Unlock()
	if !ok {
		return fmt.Errorf("no job completed")
	}
	code, b, err := do(ctx, w.client, http.MethodPost, w.lb+"/v1/sweep", "verify-sweep", refSpec)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("/v1/sweep status %d: %s", code, b)
	}
	cells, err := checkStream(b, sweepCells)
	if err != nil {
		return fmt.Errorf("/v1/sweep: %w", err)
	}
	for i := range cells {
		if !bytes.Equal(cells[i], refCells[i]) {
			return fmt.Errorf("cell %d differs between the job stream and /v1/sweep:\n%s\n%s", i, refCells[i], cells[i])
		}
	}
	return nil
}

// advisor feeds a seeded session stream on the sweep's law (DPNextFailure
// and Young sessions, as served by events-durable) to advisor sessions:
// the sweep itself drives the same policies through the simulator.
func (w *sweepWorkload) advisor(ctx context.Context) (advisorTimes, error) {
	streams, err := offlineStreams(ctx, w.seed, 8, 200)
	if err != nil {
		return advisorTimes{}, err
	}
	return timeAdvisor(ctx, streams)
}
