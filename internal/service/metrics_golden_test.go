package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics.golden from the current scrape")

// serve runs one request through the handler synchronously — no socket,
// so every clock read the request makes has happened when it returns.
func serve(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// scriptedScrape drives a fixed script — one evaluation, a DPNextFailure
// session (create, a failure and its recovery, DELETE) and one sweep job
// streamed to its trailer — against a 1-worker engine on a fake clock
// and a MemStore, and returns the /metrics payload. Every request runs
// to completion before the next starts, and the sweep runner is held at
// admission until its POST has returned, so the clock reads (and with
// them every histogram sample) repeat exactly.
func scriptedScrape(t *testing.T) string {
	t.Helper()
	srv := New(Config{
		Engine:    engine.New(engine.Config{Workers: 1, Cache: engine.NewCache(0)}),
		Store:     store.NewMem(),
		Logger:    slog.New(slog.DiscardHandler),
		Clock:     obs.NewFakeClock(time.Unix(1_700_000_000, 0), time.Millisecond),
		IDs:       obs.NewSequenceIDSource("golden"),
		ReplicaID: "golden-replica",
	})
	t.Cleanup(srv.Close)
	h := srv.Handler()

	if rec := serve(t, h, http.MethodPost, "/v1/evaluate", marshalSpec(t, smallSpec(3))); rec.Code != http.StatusOK {
		t.Fatalf("evaluate: %d %s", rec.Code, rec.Body)
	}

	rec := serve(t, h, http.MethodPost, "/v1/sessions?id=golden-session", sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 30}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("session create: %d %s", rec.Code, rec.Body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || sr.Decision == nil {
		t.Fatalf("session create response %s: %v", rec.Body, err)
	}
	events, err := json.Marshal(SessionEventsRequest{Events: []advisor.Event{
		{Kind: advisor.EventFailure, Time: sr.Decision.Chunk / 2, Unit: 0},
		{Kind: advisor.EventRecovered, Time: sr.Decision.Chunk/2 + 120},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(t, h, http.MethodPost, "/v1/sessions/golden-session/events", events); rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(t, h, http.MethodDelete, "/v1/sessions/golden-session", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}

	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = serve(t, h, http.MethodPost, "/v1/sweeps", marshalSpec(t, sweepJobSpec()))
	srv.adm.release()
	if rec.Code != http.StatusCreated {
		t.Fatalf("sweep job: %d %s", rec.Code, rec.Body)
	}
	var jr SweepJobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	srv.sweeps.wait()
	rec = serve(t, h, http.MethodGet, "/v1/sweeps/"+jr.ID, nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"done":true`) {
		t.Fatalf("sweep job stream: %d %s", rec.Code, rec.Body)
	}

	rec = serve(t, h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// splitExposition separates a scrape into its sorted HELP/TYPE lines and
// its sorted sample lines.
func splitExposition(payload string) (headers, samples []string) {
	for _, line := range strings.Split(payload, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			headers = append(headers, line)
		default:
			samples = append(samples, line)
		}
	}
	slices.Sort(headers)
	slices.Sort(samples)
	return headers, samples
}

// TestMetricsScrapeMatchesGolden pins the whole /metrics surface: every
// family, HELP and TYPE line, label set, bucket bound and sample value a
// fixed script produces. The golden was recorded from the hand-written
// exposition writer this package used before the shared obs registry,
// so it proves the move to the registry changed no sample.
func TestMetricsScrapeMatchesGolden(t *testing.T) {
	got := scriptedScrape(t)
	path := filepath.Join("testdata", "metrics.golden")
	if *updateMetricsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parseExposition(t, got)
	gotHeaders, gotSamples := splitExposition(got)
	wantHeaders, wantSamples := splitExposition(string(want))
	if !slices.Equal(gotHeaders, wantHeaders) {
		t.Errorf("HELP/TYPE lines differ from the golden:\n%s", lineDiff(wantHeaders, gotHeaders))
	}
	if !slices.Equal(gotSamples, wantSamples) {
		t.Errorf("sample lines differ from the golden:\n%s", lineDiff(wantSamples, gotSamples))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got []string) string {
	var b strings.Builder
	for _, l := range want {
		if !slices.Contains(got, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
