package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryExposition pins the text format byte for byte: families
// in registration order, series sorted by label values, escaped label
// values, cumulative buckets ending in +Inf, and the unlabeled sample
// forms.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("t_requests_total", "Requests by path and code.", "path", "code")
	reqs.With("/b", "200").Add(2)
	reqs.With(`/q"\`+"\n}", "200").Inc()
	reqs.With("/a", "500").Inc()
	r.GaugeFunc("t_open", "Open things.", func() int64 { return -3 })
	h := r.HistogramVec("t_seconds", "Stage latency.", []float64{0.001, 0.5, 2}, "stage")
	h.With("b").Observe(0.25)
	h.With("b").Observe(3)
	h.With("a")
	plain := r.Histogram("t_plain_seconds", "Unlabeled.", []float64{1})
	plain.Observe(1)
	r.Counter("t_total", "Unlabeled counter.").Inc()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_requests_total Requests by path and code.
# TYPE t_requests_total counter
t_requests_total{path="/a",code="500"} 1
t_requests_total{path="/b",code="200"} 2
t_requests_total{path="/q\"\\\n}",code="200"} 1
# HELP t_open Open things.
# TYPE t_open gauge
t_open -3
# HELP t_seconds Stage latency.
# TYPE t_seconds histogram
t_seconds_bucket{stage="a",le="0.001"} 0
t_seconds_bucket{stage="a",le="0.5"} 0
t_seconds_bucket{stage="a",le="2"} 0
t_seconds_bucket{stage="a",le="+Inf"} 0
t_seconds_sum{stage="a"} 0
t_seconds_count{stage="a"} 0
t_seconds_bucket{stage="b",le="0.001"} 0
t_seconds_bucket{stage="b",le="0.5"} 1
t_seconds_bucket{stage="b",le="2"} 1
t_seconds_bucket{stage="b",le="+Inf"} 2
t_seconds_sum{stage="b"} 3.25
t_seconds_count{stage="b"} 2
# HELP t_plain_seconds Unlabeled.
# TYPE t_plain_seconds histogram
t_plain_seconds_bucket{le="1"} 1
t_plain_seconds_bucket{le="+Inf"} 1
t_plain_seconds_sum 1
t_plain_seconds_count 1
# HELP t_total Unlabeled counter.
# TYPE t_total counter
t_total 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRegistrySortsByLabelValues: series order follows the label-value
// tuple, first label first, whatever order they were created in.
func TestRegistrySortsByLabelValues(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("t_total", "Sorted.", "op", "result")
	for _, s := range [][2]string{{"put", "ok"}, {"get", "ok"}, {"put", "error"}, {"get", "error"}, {"append", "ok"}} {
		cv.With(s[0], s[1]).Inc()
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "t_total{") {
			got = append(got, strings.TrimSuffix(strings.TrimPrefix(line, "t_total"), " 1"))
		}
	}
	want := []string{
		`{op="append",result="ok"}`,
		`{op="get",result="error"}`,
		`{op="get",result="ok"}`,
		`{op="put",result="error"}`,
		`{op="put",result="ok"}`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("series order:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestHistogramRendersEveryBucketBeforeObservations: a histogram (or a
// pre-created vector series) scraped before its first observation shows
// its whole bucket layout at zero.
func TestHistogramRendersEveryBucketBeforeObservations(t *testing.T) {
	r := NewRegistry()
	r.Histogram("t_plain_seconds", "Plain.", SpanBuckets)
	r.HistogramVec("t_vec_seconds", "Vec.", SpanBuckets, "warm").With("false")
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"t_plain_seconds_bucket{", `t_vec_seconds_bucket{warm="false",`} {
		n := 0
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, prefix) {
				if !strings.HasSuffix(line, " 0") {
					t.Errorf("non-zero bucket before any observation: %q", line)
				}
				n++
			}
		}
		if n != len(SpanBuckets)+1 {
			t.Errorf("%s: %d buckets rendered, want %d", prefix, n, len(SpanBuckets)+1)
		}
	}
}

// TestRegistryOnScrapeAndHandler: snapshot hooks run once per scrape
// before the funcs read them, and the handler answers with the
// exposition media type.
func TestRegistryOnScrapeAndHandler(t *testing.T) {
	r := NewRegistry()
	var calls, snap uint64
	r.OnScrape(func() { calls++; snap = calls * 10 })
	r.CounterFunc("t_a_total", "A.", func() uint64 { return snap })
	r.CounterFunc("t_b_total", "B.", func() uint64 { return snap + 1 })
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != ContentType {
			t.Fatalf("content type %q", ct)
		}
		body := rec.Body.String()
		if !strings.Contains(body, "t_a_total "+strconv.Itoa(i*10)+"\n") || !strings.Contains(body, "t_b_total "+strconv.Itoa(i*10+1)+"\n") {
			t.Fatalf("scrape %d:\n%s", i, body)
		}
	}
	if calls != 2 {
		t.Fatalf("OnScrape ran %d times for 2 scrapes", calls)
	}
}

// TestRegistryConcurrentUpdates: Inc, Observe and series creation race
// with scrapes without losing an update (run under -race).
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("t_total", "Concurrent.", "k")
	hv := r.HistogramVec("t_seconds", "Concurrent.", SpanBuckets, "k")
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := strconv.Itoa(g % 2)
			for i := 0; i < iters; i++ {
				cv.With(k).Inc()
				hv.With(k).Observe(0.003)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_, _ = r.WriteTo(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`t_total{k="0"} 2000`, `t_total{k="1"} 2000`,
		`t_seconds_count{k="0"} 2000`, `t_seconds_count{k="1"} 2000`,
		`t_seconds_bucket{k="1",le="0.005"} 2000`, `t_seconds_bucket{k="1",le="0.001"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestMetricsHotPathZeroAlloc: observing into a resolved series, and
// resolving an existing series, allocate nothing.
func TestMetricsHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("t_seconds", "Hot path.", SpanBuckets, "op", "result")
	cv := r.CounterVec("t_total", "Hot path.", "path", "code")
	h := hv.With("append", "ok")
	cv.With("/v1/sessions/{id}/events", "200")
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.0004) }); n != 0 {
		t.Errorf("Observe: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		hv.With("append", "ok").Observe(0.0004)
		cv.With("/v1/sessions/{id}/events", "200").Inc()
	}); n != 0 {
		t.Errorf("With + update on an existing series: %v allocs", n)
	}
}

// BenchmarkHistogramObserve times one observation into a pre-resolved
// series and fails if it allocates.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().HistogramVec("t_seconds", "Bench.", SpanBuckets, "op").With("fsync")
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.0004) }); n != 0 {
		b.Fatalf("Observe allocates %v per call, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0004)
	}
}
