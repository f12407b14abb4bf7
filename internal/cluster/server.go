package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Backend is what a store server serves: a full store.Store, such as a
// MemStore or a FileStore. ServerConfig and backend decorators name it.
type Backend = store.Store

// ServerConfig configures a StoreServer.
type ServerConfig struct {
	// Backend is the store being served. Required.
	Backend Backend
	// Logger receives the access log. Nil discards it.
	Logger *slog.Logger
	// IDs mints request ids for requests arriving without an
	// X-Request-ID header. Nil selects the random source.
	IDs obs.IDSource
	// Clock times the server's spans. Nil selects the real clock.
	Clock obs.Clock
	// TraceCapacity bounds the span ring buffer (0 = default).
	TraceCapacity int
	// Version is reported by /healthz.
	Version string
}

// StoreServer exposes a Backend over the wire protocol, with the same
// observability surface the API server has: X-Request-ID adoption, an
// own span ring at /v1/debug/traces, metrics at /metrics and a
// /healthz probe. Backend spans (store.append, store.fsync,
// store.lease, ...) started under a request context land in this
// server's tracer carrying the client's request id — that is what
// makes one logical request traceable across both processes.
type StoreServer struct {
	be      Backend
	log     *slog.Logger
	ids     obs.IDSource
	tracer  *obs.Tracer
	version string
	handler http.Handler
	rpcs    *obs.CounterVec // chkpt_store_server_rpcs_total{op}
}

// NewStoreServer builds the server around a backend.
func NewStoreServer(cfg ServerConfig) *StoreServer {
	if cfg.Backend == nil {
		panic("cluster: ServerConfig.Backend is required")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ids := cfg.IDs
	if ids == nil {
		ids = obs.NewRandomIDSource()
	}
	reg := obs.NewRegistry()
	rpcs := reg.CounterVec("chkpt_store_server_rpcs_total", "Wire operations served, by op.", "op")
	for _, op := range wireOps {
		rpcs.With(op)
	}
	// The backend's fsync and replay spans land in this tracer, so this
	// process exports the checkpoint cost C and the recovery cost R.
	observeSpan := store.RegisterMetrics(reg, cfg.Backend.Stats)
	sv := &StoreServer{
		be:      cfg.Backend,
		log:     logger,
		ids:     ids,
		tracer:  obs.NewTracer(obs.TracerConfig{Clock: cfg.Clock, Capacity: cfg.TraceCapacity, OnEnd: observeSpan}),
		version: cfg.Version,
		rpcs:    rpcs,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wirePathPrefix+"{op}", sv.handleOp)
	mux.HandleFunc("GET /healthz", sv.handleHealthz)
	mux.Handle("GET /metrics", reg)
	mux.HandleFunc("GET /v1/debug/traces", sv.handleTraces)
	sv.handler = sv.instrument(mux)
	return sv
}

// Handler returns the server's HTTP handler.
func (sv *StoreServer) Handler() http.Handler { return sv.handler }

// Tracer exposes the server's span ring, for tests that assert
// cross-process correlation.
func (sv *StoreServer) Tracer() *obs.Tracer { return sv.tracer }

// serveStatusWriter captures the status code for the access log.
type serveStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *serveStatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *serveStatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument is the observability middleware: adopt or mint the
// request id, attach the tracer, wrap the request in a span, log.
func (sv *StoreServer) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = sv.ids.NewID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithTracer(ctx, sv.tracer)
		ctx, span := obs.StartSpan(ctx, "store.serve")
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		if op, ok := strings.CutPrefix(r.URL.Path, wirePathPrefix); ok {
			span.SetAttr("op", op)
		}
		sw := &serveStatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
		sv.log.Info("store request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "request_id", reqID)
	})
}

// handleOp decodes one framed operation, dispatches it against the
// backend, and answers one framed response. Domain errors ride inside
// the 200; only an undecodable request (which was not executed, so the
// client may treat it as never sent) is a plain-text 400.
func (sv *StoreServer) handleOp(w http.ResponseWriter, r *http.Request) {
	op := r.PathValue("op")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
		return
	}
	var req wireRequest
	if err := decodeWire(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	resp, ok := sv.dispatch(r.Context(), op, &req)
	if !ok {
		http.Error(w, fmt.Sprintf("bad %s request: %s", op, resp.Err.Msg), http.StatusBadRequest)
		return
	}
	sv.rpcs.With(op).Inc()
	frame, err := encodeResponse(op, &resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// dispatch runs one operation. ok=false means the request itself was
// malformed (unknown op, missing fields) and nothing was executed; the
// caller answers 400 with resp.Err.Msg.
func (sv *StoreServer) dispatch(ctx context.Context, op string, req *wireRequest) (wireResponse, bool) {
	bad := func(format string, args ...any) (wireResponse, bool) {
		return wireResponse{Err: &wireError{Kind: kindBadRequest, Msg: fmt.Sprintf(format, args...)}}, false
	}
	fail := func(err error) (wireResponse, bool) {
		return wireResponse{Err: toWireError(err)}, true
	}
	ttl := time.Duration(req.TTLMS) * time.Millisecond
	switch op {
	case opCreated:
		if req.ID == "" || req.Spec == nil {
			return bad("created needs id and spec")
		}
		return fail(sv.be.AppendCreated(ctx, req.ID, req.Spec))
	case opEvent:
		if req.ID == "" || req.Event == nil {
			return bad("event needs id and event")
		}
		return fail(sv.be.AppendEvent(ctx, req.ID, *req.Event))
	case opAdvised:
		if req.ID == "" {
			return bad("advised needs id")
		}
		return fail(sv.be.AppendAdvised(ctx, req.ID))
	case opTombstone:
		if req.ID == "" {
			return bad("tombstone needs id")
		}
		return fail(sv.be.Tombstone(ctx, req.ID))
	case opReplay:
		if req.ID == "" {
			return bad("replay needs id")
		}
		rep, err := sv.be.Replay(ctx, req.ID)
		if err != nil {
			return fail(err)
		}
		return wireResponse{Spec: rep.Spec, steps: rep.Steps}, true
	case opPut:
		if req.Key == "" {
			return bad("put needs key")
		}
		return fail(sv.be.Put(ctx, req.Key, req.Val))
	case opGet:
		if req.Key == "" {
			return bad("get needs key")
		}
		val, found, err := sv.be.Get(ctx, req.Key)
		if err != nil {
			return fail(err)
		}
		return wireResponse{Val: val, Found: found}, true
	case opPutLeased:
		if req.Key == "" || req.Lease == nil {
			return bad("put-leased needs key and lease")
		}
		return fail(sv.be.PutLeased(ctx, *req.Lease, req.Key, req.Val))
	case opLeaseAcquire:
		if req.Key == "" || req.Owner == "" {
			return bad("lease-acquire needs key and owner")
		}
		l, err := sv.be.AcquireLease(ctx, req.Key, req.Owner, ttl)
		if err != nil {
			return fail(err)
		}
		return wireResponse{Lease: &l}, true
	case opLeaseRenew:
		if req.Lease == nil {
			return bad("lease-renew needs lease")
		}
		return fail(sv.be.RenewLease(ctx, *req.Lease, ttl))
	case opLeaseRelease:
		if req.Lease == nil {
			return bad("lease-release needs lease")
		}
		return fail(sv.be.ReleaseLease(ctx, *req.Lease))
	case opStats:
		st := sv.be.Stats()
		return wireResponse{Stats: &st}, true
	default:
		return bad("unknown op %q", op)
	}
}

// handleHealthz answers the liveness probe.
func (sv *StoreServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok", "version": sv.version})
}

// tracesResponse mirrors the API server's /v1/debug/traces shape.
type tracesResponse struct {
	Spans []obs.Span `json:"spans"`
}

// handleTraces dumps the span ring, newest first.
func (sv *StoreServer) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tracesResponse{Spans: sv.tracer.Recent(limit)})
}
