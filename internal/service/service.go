package service

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is serviceable: default engine,
// one evaluation slot per engine worker, a 16-deep wait queue and a
// two-minute request timeout.
type Config struct {
	// Engine executes evaluations; its worker pool bounds the parallelism
	// inside one evaluation and its cache shares DP tables, planners and
	// traces across requests. Nil means engine.Default().
	Engine *engine.Engine
	// MaxConcurrent bounds the evaluations executing at once (queued
	// requests beyond it wait). Non-positive means the engine's worker
	// count.
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for an
	// execution slot; anything beyond is rejected with 429. Zero means 16;
	// negative means no waiting queue (slots only).
	QueueDepth int
	// RequestTimeout bounds each evaluation (and each streamed sweep) from
	// admission to completion. Zero means 2 minutes; negative disables the
	// timeout.
	RequestTimeout time.Duration
	// SessionTTL bounds how long an untouched advisor session stays live;
	// every request for a session slides its window. Zero means 15
	// minutes.
	SessionTTL time.Duration
	// MaxSessions bounds the live session store; creations beyond it (with
	// nothing expired to reclaim) answer 429. Zero means 1024.
	MaxSessions int
	// Store is the durable persistence layer: the session event log and
	// the content-addressed result store. Nil means store.NewMem() — the
	// previous in-process behavior, where nothing survives the process.
	// The caller owns a provided store (the server never closes it).
	Store store.Store
	// Version is the build identification reported by /healthz. Empty
	// means "dev".
	Version string
	// Logger receives structured access logs. Nil means text logs on
	// stderr.
	Logger *slog.Logger
	// Clock is the server's time source (session TTLs, access-log
	// latencies, span durations). Nil means the real clock; tests inject
	// obs.NewFakeClock for deterministic timing.
	Clock obs.Clock
	// IDs mints request ids for requests arriving without an
	// X-Request-ID header. Nil means random ids; tests inject
	// obs.NewSequenceIDSource for deterministic ones.
	IDs obs.IDSource
	// TraceCapacity bounds the span ring buffer served by
	// /v1/debug/traces. Non-positive means obs.DefaultTraceCapacity.
	TraceCapacity int
	// ReplicaID names this server instance in the fleet: it is the lease
	// owner for sweep-job claims. Empty mints a random one — correct for
	// a fleet, where owners must differ; fix it only in tests.
	ReplicaID string
	// SweepLeaseTTL is how long a sweep-job claim lives between renewals
	// (the window after a replica dies before another may reclaim its
	// job). Zero means 15 seconds. Measured on the store's clock.
	SweepLeaseTTL time.Duration
	// SweepClaimCells is how many cells a replica computes per claim
	// before releasing the job lease for the fleet to rebalance. Zero
	// means 8.
	SweepClaimCells int
	// SweepRetryDelay is how long a replica waits before re-probing a
	// job whose lease another replica holds. Zero means 250ms.
	SweepRetryDelay time.Duration
}

// Server is the HTTP evaluation service over the spec/engine stack. Build
// one with New and mount Handler on an http.Server.
type Server struct {
	eng     *engine.Engine
	adm     *admission
	coal    *coalescer
	met     *metrics
	store   *sessionStore
	st      store.Store
	sweeps  *sweepJobs
	version string
	log     *slog.Logger
	timeout time.Duration
	handler http.Handler
	clock   obs.Clock
	ids     obs.IDSource
	tracer  *obs.Tracer

	// Lease-claimed sweep execution (see runSweepCells): this replica's
	// lease owner name and its claim cadence.
	replicaID       string
	sweepLeaseTTL   time.Duration
	sweepClaimCells int
	sweepRetryDelay time.Duration

	// jobsCtx bounds background sweep-job runners to the server lifetime;
	// Close cancels it and waits for them.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	// evalGate, when set (tests only), runs inside every coalesced
	// evaluation after admission and before the engine run.
	evalGate func()
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = engine.Default()
	}
	conc := cfg.MaxConcurrent
	if conc <= 0 {
		conc = eng.Workers()
	}
	depth := cfg.QueueDepth
	switch {
	case depth == 0:
		depth = 16
	case depth < 0:
		depth = 0
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 2 * time.Minute
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	maxSessions := cfg.MaxSessions
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	version := cfg.Version
	if version == "" {
		version = "dev"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.NewRealClock()
	}
	ids := cfg.IDs
	if ids == nil {
		ids = obs.NewRandomIDSource()
	}
	replicaID := cfg.ReplicaID
	if replicaID == "" {
		replicaID = "replica-" + obs.NewRandomIDSource().NewID()
	}
	leaseTTL := cfg.SweepLeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = 15 * time.Second
	}
	claimCells := cfg.SweepClaimCells
	if claimCells <= 0 {
		claimCells = 8
	}
	retryDelay := cfg.SweepRetryDelay
	if retryDelay <= 0 {
		retryDelay = 250 * time.Millisecond
	}
	met := newMetrics(eng, st)
	tracer := obs.NewTracer(obs.TracerConfig{
		Clock:    clock,
		Capacity: cfg.TraceCapacity,
		OnEnd:    met.observeSpan,
	})
	jobsCtx, jobsCancel := context.WithCancel(obs.WithTracer(context.Background(), tracer))
	s := &Server{
		eng:        eng,
		adm:        newAdmission(conc, depth),
		coal:       newCoalescer(),
		met:        met,
		store:      newSessionStore(ttl, maxSessions, st, clock, met.reg),
		st:         st,
		sweeps:     newSweepJobs(),
		version:    version,
		log:        logger,
		timeout:    timeout,
		clock:      clock,
		ids:        ids,
		tracer:     tracer,
		jobsCtx:    jobsCtx,
		jobsCancel: jobsCancel,

		replicaID:       replicaID,
		sweepLeaseTTL:   leaseTTL,
		sweepClaimCells: claimCells,
		sweepRetryDelay: retryDelay,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.Handle("GET /metrics", met.reg)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/recommend", s.handleRecommend)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepJobCreate)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepJobGet)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	s.handler = s.instrument(mux)
	return s
}

// Handler returns the service's HTTP handler: the API mux wrapped in the
// access-log and metrics middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the server's background work: it cancels every running
// sweep-job runner and waits for them to drain. It does not close the
// configured store — the caller owns that handle (and closes it after
// Close returns, so no runner races a closed store).
func (s *Server) Close() {
	s.jobsCancel()
	s.sweeps.wait()
}

// runContext returns the context a coalesced evaluation executes under:
// bounded by the request timeout but detached from any single client, so
// one disconnecting waiter never cancels the work other waiters share.
// The observability values (tracer, request id, parent span) are carried
// over, so the detached work stays correlated with the request that
// started the flight.
func (s *Server) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	detached := obs.Detach(ctx)
	if s.timeout < 0 {
		return context.WithCancel(detached)
	}
	return context.WithTimeout(detached, s.timeout)
}

// requestContext bounds a non-coalesced (streaming) request: the client's
// context plus the request timeout, so both disconnects and overlong
// sweeps cancel the engine run.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// statusWriter captures the response status and size for the access log,
// delegating Flush to the underlying writer through Unwrap (the
// http.ResponseController protocol).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// metricsPath collapses unknown request paths into one series: the
// request series are keyed by path, and without this bound a scanner
// spraying unique URLs would grow them (and the /metrics exposition)
// without limit.
func metricsPath(path string) string {
	switch path {
	case "/healthz", "/metrics", "/v1/evaluate", "/v1/sweep", "/v1/recommend", "/v1/registry", "/v1/sessions", "/v1/sweeps":
		return path
	}
	// Session ids are per-client random: collapse them into two series.
	if strings.HasPrefix(path, "/v1/sessions/") {
		if strings.HasSuffix(path, "/events") {
			return "/v1/sessions/{id}/events"
		}
		return "/v1/sessions/{id}"
	}
	// Sweep-job ids are content hashes: unbounded cardinality, one series.
	if strings.HasPrefix(path, "/v1/sweeps/") {
		return "/v1/sweeps/{id}"
	}
	return "other"
}

// instrument wraps the mux with request-id propagation, span tracing,
// access logging and per-path metrics. The request id (client-supplied
// X-Request-ID, sanitized, or freshly minted) is echoed on the response,
// attached to the access log line, and carried on the request context so
// every span recorded downstream correlates to it.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = s.ids.NewID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := obs.WithRequestID(obs.WithTracer(r.Context(), s.tracer), reqID)
		ctx, span := obs.StartSpan(ctx, "http.request")
		span.SetAttr("method", r.Method)
		span.SetAttr("path", metricsPath(r.URL.Path))
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		start := s.clock.Now()
		next.ServeHTTP(sw, r)
		dur := s.clock.Now().Sub(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
		path := metricsPath(r.URL.Path)
		s.met.requests.With(path, strconv.Itoa(sw.status)).Inc()
		s.met.latency.With(path).Observe(dur.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", dur.Milliseconds(),
			"remote", r.RemoteAddr,
			"request_id", reqID,
		)
	})
}
