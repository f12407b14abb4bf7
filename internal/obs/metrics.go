package obs

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition media type every
// /metrics endpoint answers with.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// SpanBuckets are the upper bounds, in seconds, of the span-fed stage
// histograms. Warm re-plans are ~10µs, cold DP builds ~1ms, fsyncs
// ~1ms, engine cells up to seconds, so they reach two decades below a
// request's latency buckets.
var SpanBuckets = []float64{0.00001, 0.0001, 0.001, 0.005, 0.02, 0.1, 0.5, 2, 10}

// Registry is a process's set of metric families, rendered in the
// Prometheus text format by WriteTo. Families render in registration
// order and the series of a family sorted by label values, so a scrape
// is a deterministic function of the recorded values. Updates never
// take the registry lock: counters are atomic and each histogram series
// has its own lock.
type Registry struct {
	mu       sync.Mutex
	families []*family
	scrapes  []func()
}

// family is one registered metric: its HELP text and the value that
// renders its TYPE and sample lines.
type family struct {
	name, help string
	m          metric
}

// metric is a family's value.
type metric interface {
	appendSamples(b []byte, name string) []byte
}

// typeOf names a family's metric type for its TYPE line.
func typeOf(m metric) string {
	switch m.(type) {
	case gaugeFunc:
		return "gauge"
	case *Histogram, *HistogramVec:
		return "histogram"
	}
	return "counter"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(name, help string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, &family{name: name, help: help, m: m})
}

// OnScrape registers f to run at the start of every scrape, before any
// family renders. A component whose values come from one snapshot call
// (a locked copy, a stats RPC) takes the snapshot here, and the
// CounterFuncs and GaugeFuncs that read it see one consistent copy. The
// registry serializes scrapes, so f needs no lock of its own.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scrapes = append(r.scrapes, f)
}

// WriteTo renders every family in the text exposition format. It holds
// the registry lock while the OnScrape hooks and the funcs run, so they
// must not call back into the registry.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.scrapes {
		f()
	}
	var b []byte
	for _, f := range r.families {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typeOf(f.m))
		b = f.m.appendSamples(b, f.name)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ServeHTTP answers a scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_, _ = r.WriteTo(w)
}

type counterFunc func() uint64

func (f counterFunc) appendSamples(b []byte, name string) []byte {
	return fmt.Appendf(b, "%s %d\n", name, f())
}

type gaugeFunc func() int64

func (f gaugeFunc) appendSamples(b []byte, name string) []byte {
	return fmt.Appendf(b, "%s %d\n", name, f())
}

// CounterFunc registers a counter whose value f reads from the
// component that owns it.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.register(name, help, counterFunc(f))
}

// GaugeFunc registers a gauge whose value f reads from the component
// that owns it.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.register(name, help, gaugeFunc(f))
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

func (c *Counter) appendSamples(b []byte, name string) []byte {
	return counterFunc(c.v.Load).appendSamples(b, name)
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.register(name, help, c)
	return c
}

// CounterVec is a counter family with one series per label-value tuple.
type CounterVec struct{ vec[Counter] }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{newVec(labels, func() *Counter { return new(Counter) })}
	r.register(name, help, cv)
	return cv
}

func (cv *CounterVec) appendSamples(b []byte, name string) []byte {
	cv.each(func(labels string, c *Counter) {
		b = fmt.Appendf(b, "%s%s %d\n", name, labelBlock(labels, ""), c.v.Load())
	})
	return b
}

// With returns the series for the label values (one per label, in
// registration order), creating it on first use. Resolving an existing
// series allocates nothing; keep the result where the values are fixed.
func (cv *CounterVec) With(values ...string) *Counter { return cv.with(values) }

// Histogram counts observations into fixed buckets. The buckets are
// sized when the series is created, so Observe never allocates and a
// series scraped before its first observation renders every bucket.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	mu     sync.Mutex
	counts []uint64 // counts[i]: observations in (bounds[i-1], bounds[i]]; the last slot is above every bound
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) appendSamples(b []byte, name string) []byte { return h.appendSeries(b, name, "") }

// appendSeries renders the cumulative buckets, +Inf, sum and count of
// the series with the given label pairs.
func (h *Histogram) appendSeries(b []byte, name, labels string) []byte {
	h.mu.Lock()
	counts, sum := slices.Clone(h.counts), h.sum
	h.mu.Unlock()
	var cum uint64
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		b = fmt.Appendf(b, "%s_bucket%s %d\n", name, labelBlock(labels, le), cum)
	}
	block := labelBlock(labels, "")
	return fmt.Appendf(b, "%s_sum%s %g\n%s_count%s %d\n", name, block, sum, name, block, cum)
}

// Histogram registers an unlabeled histogram with the given bucket
// upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, h)
	return h
}

// HistogramVec is a histogram family with one series per label-value
// tuple, all sharing one bucket layout.
type HistogramVec struct{ vec[Histogram] }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	hv := &HistogramVec{newVec(labels, func() *Histogram { return newHistogram(bounds) })}
	r.register(name, help, hv)
	return hv
}

func (hv *HistogramVec) appendSamples(b []byte, name string) []byte {
	hv.each(func(labels string, h *Histogram) { b = h.appendSeries(b, name, labels) })
	return b
}

// With returns the series for the label values, creating it on first
// use. Calling it at registration pre-creates a series, so its full
// bucket set renders from the first scrape.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.with(values) }

// vec maps label-value tuples to series. A series' key is its label
// values, each terminated by a NUL byte, so keys sort in label-value
// order.
type vec[M any] struct {
	names  []string
	create func() *M
	mu     sync.Mutex
	series map[string]*M
}

func newVec[M any](names []string, create func() *M) vec[M] {
	return vec[M]{names: names, create: create, series: map[string]*M{}}
}

func (v *vec[M]) with(values []string) *M {
	if len(values) != len(v.names) {
		panic("obs: metric series needs one value per label")
	}
	// The key lives on the stack and a map lookup by string(key) does
	// not allocate.
	var buf [128]byte
	key := buf[:0]
	for _, x := range values {
		key = append(append(key, x...), 0)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.series[string(key)]
	if m == nil {
		m = v.create()
		v.series[string(key)] = m
	}
	return m
}

// each calls f for every series in label-value order, with its label
// pairs rendered.
func (v *vec[M]) each(f func(labels string, m *M)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range slices.Sorted(maps.Keys(v.series)) {
		f(v.labels(key), v.series[key])
	}
}

// labels renders a series key as quoted label pairs,
// `path="/a",code="200"`.
func (v *vec[M]) labels(key string) string {
	var b []byte
	for i, name := range v.names {
		value, rest, _ := strings.Cut(key, "\x00")
		key = rest
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, name...), '='), value)
	}
	return string(b)
}

// labelBlock renders a sample's label block: the series labels plus an
// le label when le is set, braced, or "" when there is neither.
func labelBlock(labels, le string) string {
	if le != "" {
		if labels != "" {
			labels += ","
		}
		labels += `le="` + le + `"`
	}
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
