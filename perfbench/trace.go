package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// Layer names of the recorded spans, outermost first. Every span is
// recorded from outside the layer, around a public entry point.
const (
	layerClient    = "client"    // the benchmark's own request, as its client sees it
	layerLB        = "lb"        // cluster.Forwarder.ServeHTTP
	layerServe     = "serve"     // service.Server.Handler()
	layerStore     = "store"     // the store.Store the service calls (a RemoteStore)
	layerStoreSrv  = "storesrv"  // cluster.StoreServer.Handler()
	layerFileStore = "filestore" // the cluster.Backend the store server calls (a FileStore)
)

// span is one recorded interval. Start and end are offsets from the
// recorder's base time.
type span struct {
	Layer string        `json:"layer"`
	Op    string        `json:"op,omitempty"`
	RID   string        `json:"rid,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Bytes int64         `json:"bytes,omitempty"`
	Err   bool          `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory while it is on. The wrappers hold a
// recorder for the whole run; switching it off leaves them in the path
// at the cost of one atomic load, which is how the traced run measures
// its own overhead.
type recorder struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin returns the start offset, or -1 when the recorder is off.
func (r *recorder) begin() time.Duration {
	if r == nil || !r.on.Load() {
		return -1
	}
	return time.Since(r.base)
}

func (r *recorder) end(layer, op, rid string, start time.Duration, bytes int64, err bool) {
	if start < 0 {
		return
	}
	s := span{Layer: layer, Op: op, RID: rid, Start: start, End: time.Since(r.base), Bytes: bytes, Err: err}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// dump writes spans as NDJSON.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHandler times an http.Handler from outside. The request id is the
// X-Request-ID header the benchmark sets and every hop forwards. With
// countBytes the response body size is recorded too (the store wire).
func traceHandler(rec *recorder, layer string, h http.Handler, countBytes bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := rec.begin()
		if start < 0 {
			h.ServeHTTP(w, r)
			return
		}
		var cw *countingWriter
		if countBytes {
			cw = &countingWriter{ResponseWriter: w}
			w = cw
		}
		h.ServeHTTP(w, r)
		var n int64
		if cw != nil {
			n = cw.n
		}
		rec.end(layer, r.Method+" "+r.URL.Path, r.Header.Get("X-Request-ID"), start, n, false)
	})
}

// countingWriter counts response body bytes. It is used only in front
// of the store server, which never flushes mid-response.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tracedStore times every call into a store from outside. It forwards
// the lease face too: the sweep runner type-asserts store.LeaseStore,
// and a decorator without it would switch the service onto its
// unleased single-writer branch, which no deployment runs. The same
// type wraps both the RemoteStore the service calls and the FileStore
// behind the store server; both satisfy cluster.Backend.
type tracedStore struct {
	inner cluster.Backend
	layer string
	rec   *recorder
}

var _ cluster.Backend = (*tracedStore)(nil)

func (t *tracedStore) done(ctx context.Context, op string, start time.Duration, err error) {
	t.rec.end(t.layer, op, obs.RequestID(ctx), start, 0, err != nil)
}

func (t *tracedStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	start := t.rec.begin()
	err := t.inner.AppendCreated(ctx, id, ss)
	t.done(ctx, "AppendCreated", start, err)
	return err
}

func (t *tracedStore) AppendEvent(ctx context.Context, id string, ev advisor.Event) error {
	start := t.rec.begin()
	err := t.inner.AppendEvent(ctx, id, ev)
	t.done(ctx, "AppendEvent", start, err)
	return err
}

func (t *tracedStore) AppendAdvised(ctx context.Context, id string) error {
	start := t.rec.begin()
	err := t.inner.AppendAdvised(ctx, id)
	t.done(ctx, "AppendAdvised", start, err)
	return err
}

func (t *tracedStore) Tombstone(ctx context.Context, id string) error {
	start := t.rec.begin()
	err := t.inner.Tombstone(ctx, id)
	t.done(ctx, "Tombstone", start, err)
	return err
}

func (t *tracedStore) Replay(ctx context.Context, id string) (*store.SessionReplay, error) {
	start := t.rec.begin()
	rep, err := t.inner.Replay(ctx, id)
	t.done(ctx, "Replay", start, err)
	return rep, err
}

func (t *tracedStore) Put(ctx context.Context, key string, val []byte) error {
	start := t.rec.begin()
	err := t.inner.Put(ctx, key, val)
	t.done(ctx, "Put", start, err)
	return err
}

func (t *tracedStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	start := t.rec.begin()
	val, ok, err := t.inner.Get(ctx, key)
	t.done(ctx, "Get", start, err)
	return val, ok, err
}

func (t *tracedStore) AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (store.Lease, error) {
	start := t.rec.begin()
	l, err := t.inner.AcquireLease(ctx, key, owner, ttl)
	t.done(ctx, "AcquireLease", start, err)
	return l, err
}

func (t *tracedStore) RenewLease(ctx context.Context, l store.Lease, ttl time.Duration) error {
	start := t.rec.begin()
	err := t.inner.RenewLease(ctx, l, ttl)
	t.done(ctx, "RenewLease", start, err)
	return err
}

func (t *tracedStore) ReleaseLease(ctx context.Context, l store.Lease) error {
	start := t.rec.begin()
	err := t.inner.ReleaseLease(ctx, l)
	t.done(ctx, "ReleaseLease", start, err)
	return err
}

func (t *tracedStore) PutLeased(ctx context.Context, l store.Lease, key string, val []byte) error {
	start := t.rec.begin()
	err := t.inner.PutLeased(ctx, l, key, val)
	t.done(ctx, "PutLeased", start, err)
	return err
}

func (t *tracedStore) Stats() store.Stats { return t.inner.Stats() }
func (t *tracedStore) Close() error       { return t.inner.Close() }

// durableOps are the backend calls that write and fsync before they
// return (every one of them, in today's FileStore).
var durableOps = map[string]bool{
	"AppendCreated": true, "AppendEvent": true, "AppendAdvised": true, "Tombstone": true,
	"Put": true, "PutLeased": true, "AcquireLease": true, "RenewLease": true, "ReleaseLease": true,
}

var appendOps = map[string]bool{"AppendCreated": true, "AppendEvent": true, "AppendAdvised": true}

// busyTime is the length of the union of the spans' intervals: the time
// at least one call was inside the layer. Spans that queue on a lock
// inside the layer overlap, so a plain sum would count the wait twice.
func busyTime(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	cur := iv[0]
	for _, s := range iv[1:] {
		if s.Start > cur.End {
			total += cur.dur()
			cur = s
			continue
		}
		if s.End > cur.End {
			cur.End = s.End
		}
	}
	return total + cur.dur()
}
