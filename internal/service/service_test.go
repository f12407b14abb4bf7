package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/spec"
)

// newTestServer builds a quiet server over a fresh cached engine.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{Workers: 2, Cache: engine.NewCache(0)})
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// smallSpec is a cheap single-cell experiment (one processor, Young only,
// two traces — runs in milliseconds).
func smallSpec(seed uint64) *spec.ExperimentSpec {
	return &spec.ExperimentSpec{
		Name: "small",
		Scenario: &spec.ScenarioSpec{
			Name:     "cell",
			Platform: spec.PlatformRef{Preset: "oneproc", MTBF: 86400},
			P:        1,
			Dist:     spec.DistSpec{Family: "exponential"},
			Horizon:  2 * platform.Year,
			Traces:   2,
			Seed:     seed,
		},
		Candidates: spec.CandidatesSpec{Policies: []spec.PolicySpec{{Kind: "young"}}},
	}
}

func marshalSpec(t *testing.T, es *spec.ExperimentSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := spec.EncodeExperiment(&buf, es); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHealthzAndRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	var reg RegistryResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(reg.Dists) < 5 || len(reg.Policies) < 9 || len(reg.Platforms) < 5 {
		t.Errorf("registry incomplete: %+v", reg)
	}
}

// TestEvaluateStrictDecode: a typo'd field must answer 400 naming the
// field, never silently fall back to defaults.
func TestEvaluateStrictDecode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/evaluate",
		[]byte(`{"name":"x","scenaro":{"p":1}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "scenaro") {
		t.Errorf("error does not name the unknown field: %s", body)
	}
}

func TestEvaluateSingleCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, smallSpec(7)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Hash) != 64 || er.Coalesced {
		t.Errorf("hash=%q coalesced=%v, want 64-hex and false", er.Hash, er.Coalesced)
	}
	if len(er.Cell.Rows) != 2 || er.Cell.Rows[0].Name != "LowerBound" || er.Cell.Rows[1].Name != "Young" {
		t.Fatalf("rows = %+v, want LowerBound + Young", er.Cell.Rows)
	}
	if !strings.Contains(er.Cell.Text, "Heuristic") || !strings.HasSuffix(er.Cell.Text, "\n\n") {
		t.Errorf("rendered text malformed: %q", er.Cell.Text)
	}

	// Multi-cell experiments belong on /v1/sweep.
	multi := smallSpec(7)
	multi.Grid = &spec.GridSpec{P: []int{1, 1}}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, multi))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "sweep") {
		t.Errorf("multi-cell: status %d body %s, want 400 pointing at /v1/sweep", resp.StatusCode, body)
	}

	// Configuration mistakes in the candidate set are client errors, not
	// engine failures: an unknown policy kind must answer 400.
	typo := smallSpec(7)
	typo.Candidates = spec.CandidatesSpec{Policies: []spec.PolicySpec{{Kind: "yung"}}}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, typo))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "yung") {
		t.Errorf("unknown kind: status %d body %s, want 400 naming the kind", resp.StatusCode, body)
	}

	// The series layout cannot render one cell; refuse before running.
	series := smallSpec(7)
	series.Table = "series"
	series.Series = &spec.SeriesSpec{XLabel: "x"}
	resp, body = postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, series))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("series evaluate: status %d body %s, want 400", resp.StatusCode, body)
	}
}

// TestSweepPreflightValidation: a sweep that can only fail answers 400
// before the 200 + NDJSON stream starts.
func TestSweepPreflightValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	es := smallSpec(7)
	es.Scenario.Platform = spec.PlatformRef{Preset: "nosuch"}
	es.Grid = &spec.GridSpec{P: []int{1, 1}}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", marshalSpec(t, es))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "nosuch") {
		t.Errorf("bad preset sweep: status %d body %s, want 400", resp.StatusCode, body)
	}
}

// TestEvaluateCoalescing is the acceptance criterion: two identical
// concurrent requests trigger exactly one engine execution; the second
// joins the first's flight and reports coalesced=true.
func TestEvaluateCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.evalGate = func() {
		once.Do(func() { close(started) })
		<-release
	}

	body := marshalSpec(t, smallSpec(7))
	type reply struct {
		status int
		er     EvaluateResponse
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, b := postJSON(t, ts.URL+"/v1/evaluate", body)
		var er EvaluateResponse
		_ = json.Unmarshal(b, &er)
		replies <- reply{resp.StatusCode, er}
	}

	go post()
	<-started // the leader holds an execution slot inside the engine run
	go post()
	// Wait until the second request has provably joined the flight, then
	// let the single run finish.
	waitFor(t, "second request joins the flight", func() bool {
		return s.coal.followers.Load() >= 1
	})
	close(release)

	a, b := <-replies, <-replies
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses = %d, %d", a.status, b.status)
	}
	if a.er.Coalesced == b.er.Coalesced {
		t.Errorf("exactly one response should report coalesced=true (got %v, %v)", a.er.Coalesced, b.er.Coalesced)
	}
	if !cellsEqual(a.er.Cell, b.er.Cell) {
		t.Errorf("coalesced responses differ:\n%+v\n%+v", a.er.Cell, b.er.Cell)
	}
	m := scrapeMetrics(t, s)
	if m("chkpt_coalesce_runs_total") != 1 || m("chkpt_coalesce_hits_total") != 1 {
		t.Errorf("coalesce runs=%v hits=%v, want 1/1", m("chkpt_coalesce_runs_total"), m("chkpt_coalesce_hits_total"))
	}
}

func cellsEqual(a, b Cell) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return bytes.Equal(aj, bj)
}

// TestOverloadSheds429: with one execution slot and no waiting queue, a
// second distinct request is rejected immediately with 429 + Retry-After.
func TestOverloadSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.evalGate = func() {
		once.Do(func() { close(started) })
		<-release
	}

	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, smallSpec(1)))
		done <- resp.StatusCode
	}()
	<-started // the slot and the whole queue are now held

	resp, body := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, smallSpec(2)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("first request status = %d", st)
	}
	if n := scrapeMetrics(t, s)("chkpt_admission_rejected_total"); n != 1 {
		t.Errorf("rejected = %v, want 1", n)
	}
}

// sweepLines posts a sweep and returns the raw NDJSON lines.
func sweepLines(t *testing.T, url string, body []byte) []string {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepStreamsDeterministicOrder: a grid sweep emits cells 0..n-1 in
// expansion order with a done trailer.
func TestSweepStreamsDeterministicOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	es := smallSpec(7)
	es.Grid = &spec.GridSpec{MTBF: []float64{43200, 86400, 172800}}
	lines := sweepLines(t, ts.URL, marshalSpec(t, es))
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 cells + trailer: %v", len(lines), lines)
	}
	for i, line := range lines[:3] {
		var c Cell
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatal(err)
		}
		if c.Index != i {
			t.Errorf("line %d has index %d", i, c.Index)
		}
	}
	var tr SweepTrailer
	if err := json.Unmarshal([]byte(lines[3]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Cells != 3 {
		t.Errorf("trailer = %+v, want done with 3 cells", tr)
	}
}

// TestSweepSeriesRejected: the pivoting layout cannot stream.
func TestSweepSeriesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	es := smallSpec(7)
	es.Table = "series"
	es.Series = &spec.SeriesSpec{XLabel: "x"}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", marshalSpec(t, es))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("series sweep: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestSweepClientCancelObserved: dropping the connection mid-stream must
// land as context.Canceled inside the engine run, stop the sweep, and be
// counted.
func TestSweepClientCancelObserved(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	// Cell 0 is instant; cell 1 carries enough traces that it is still
	// running when the client walks away after line 1.
	fast := *smallSpec(7).Scenario
	fast.Name = "fast"
	heavy := fast
	heavy.Name = "heavy"
	heavy.Traces = 5000
	es := &spec.ExperimentSpec{
		Name:       "cancel",
		Cells:      []spec.ScenarioSpec{fast, heavy},
		Candidates: spec.CandidatesSpec{Policies: []spec.PolicySpec{{Kind: "young"}}},
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep",
		bytes.NewReader(marshalSpec(t, es)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the first streamed cell, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()

	waitFor(t, "server observes context.Canceled", func() bool {
		return scrapeMetrics(t, s)("chkpt_sweep_cancelled_total") >= 1
	})
}

func TestRecommend(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	u := ts.URL + "/v1/recommend?platform=oneproc&mtbf=86400&family=weibull&shape=0.7&traces=3&quanta=30&seed=11"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rr RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Best.Policy == "" || rr.Best.AvgDegradation < 1 || rr.Best.ExpectedMakespanSec <= 0 {
		t.Errorf("best = %+v", rr.Best)
	}
	if len(rr.Rows) < 5 {
		t.Errorf("only %d rows", len(rr.Rows))
	}
	// The standard set's winners are periodic policies here, so the
	// recommendation must carry an actionable period.
	if rr.Best.Policy != "DPNextFailure" && rr.Best.PeriodSec <= 0 {
		t.Errorf("periodic winner %q without period", rr.Best.Policy)
	}

	// Unknown presets, unknown parameters and malformed or nonsensical
	// numbers answer 400.
	for _, bad := range []string{"?platform=nosuch", "?p=notanumber", "?seed=-4", "?mtbf=-5", "?mtbf=0",
		"?familly=weibull", "?family=exponential&shape=0.7", "?periodlb=yes", "?quanta=0",
		"?c=-100", "?d=-60", "?work=0"} {
		resp, err := http.Get(ts.URL + "/v1/recommend" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint: the exposition includes request counters, latency
// histograms, coalescing counters and the engine cache series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, smallSpec(3))); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup failed: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`chkpt_requests_total{path="/v1/evaluate",code="200"} 1`,
		`chkpt_request_duration_seconds_count{path="/v1/evaluate"} 1`,
		"chkpt_coalesce_runs_total 1",
		"chkpt_coalesce_hits_total 0",
		"chkpt_admission_rejected_total 0",
		"chkpt_engine_cache_hits_total",
		"chkpt_engine_cache_evictions_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionUnit exercises the bulkhead directly.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One more may queue; it blocks, so run it in a goroutine.
	queued := make(chan error, 1)
	go func() {
		err := a.acquire(context.Background())
		if err == nil {
			a.release()
		}
		queued <- err
	}()
	waitFor(t, "second caller queues", func() bool { return len(a.queue) == 2 })
	// The third is shed instantly.
	if err := a.acquire(context.Background()); err != errOverload {
		t.Fatalf("third acquire: %v, want errOverload", err)
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}

	// A queued caller that gives up must return its queue token.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx); err != context.Canceled {
		t.Fatalf("cancelled acquire: %v", err)
	}
	if len(a.queue) != 1 {
		t.Fatalf("queue len = %d after cancelled acquire, want 1", len(a.queue))
	}
	a.release()
}

// TestCoalescerUnit: one execution, shared result, follower cancellation.
func TestCoalescerUnit(t *testing.T) {
	c := newCoalescer()
	release := make(chan struct{})
	var runs int
	lead := make(chan struct{})
	type out struct {
		v      any
		shared bool
		err    error
	}
	results := make(chan out, 2)
	go func() {
		v, shared, err := c.do(context.Background(), "k", func() (any, error) {
			runs++
			close(lead)
			<-release
			return 42, nil
		})
		results <- out{v, shared, err}
	}()
	<-lead
	go func() {
		v, shared, err := c.do(context.Background(), "k", func() (any, error) {
			runs++
			return -1, nil
		})
		results <- out{v, shared, err}
	}()
	waitFor(t, "follower joins", func() bool { return c.followers.Load() == 1 })
	close(release)
	a, b := <-results, <-results
	if runs != 1 {
		t.Fatalf("fn ran %d times", runs)
	}
	if a.err != nil || b.err != nil || a.v.(int) != 42 || b.v.(int) != 42 {
		t.Fatalf("results: %+v, %+v", a, b)
	}
	if a.shared == b.shared {
		t.Errorf("want exactly one shared result, got %v/%v", a.shared, b.shared)
	}

	// A waiter honoring its own cancelled context leaves the flight up.
	release2 := make(chan struct{})
	lead2 := make(chan struct{})
	go func() {
		_, _, _ = c.do(context.Background(), "k2", func() (any, error) {
			close(lead2)
			<-release2
			return nil, nil
		})
		results <- out{}
	}()
	<-lead2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.do(ctx, "k2", func() (any, error) {
		t.Error("second fn must not run")
		return nil, nil
	}); err != context.Canceled {
		t.Fatalf("cancelled waiter: %v", err)
	}
	close(release2)
	<-results
}

// TestCoalescerRecoversPanic: a panicking flight must surface as an
// error to every waiter, never kill the process (the flight goroutine is
// outside net/http's per-request recovery).
func TestCoalescerRecoversPanic(t *testing.T) {
	c := newCoalescer()
	_, _, err := c.do(context.Background(), "boom", func() (any, error) {
		panic("engine exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("err = %v, want wrapped panic", err)
	}
	// The flight must have been cleaned up: a retry runs fresh.
	v, _, err := c.do(context.Background(), "boom", func() (any, error) { return 1, nil })
	if err != nil || v.(int) != 1 {
		t.Fatalf("retry after panic: %v, %v", v, err)
	}
}

// TestEvaluateRejectsNegativePlatformParams: custom platforms with
// negative downtime/overheads are configuration mistakes (they would
// panic deep in trace generation) and must answer 400 at decode time.
func TestEvaluateRejectsNegativePlatformParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	es := smallSpec(7)
	es.Scenario.Platform = spec.PlatformRef{Custom: &spec.PlatformCustom{
		PTotal: 1, MTBF: 86400, W: 1728000, D: -60,
	}}
	resp, body := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, es))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "downtime") {
		t.Errorf("negative downtime: status %d body %s, want 400", resp.StatusCode, body)
	}
}
