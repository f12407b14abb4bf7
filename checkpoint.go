// Package checkpoint is a from-scratch Go implementation of
// "Checkpointing strategies for parallel jobs" (Bougeret, Casanova, Rabie,
// Robert, Vivien — INRIA RR-7520 / SC 2011).
//
// It provides:
//
//   - failure models (Exponential, Weibull, Gamma, LogNormal, Empirical
//     log-based distributions) and renewal failure-trace generation;
//   - an event-driven simulator for tightly-coupled parallel jobs with
//     synchronized checkpoints, cascading downtimes and interruptible
//     recoveries;
//   - the paper's checkpointing policies: the classical periodic
//     heuristics (Young, Daly low/high order), the analytically optimal
//     OptExp (Theorem 1 / Proposition 5), reconstructions of the Bouguerra
//     and Liu policies, and the paper's two dynamic programs — DPMakespan
//     (Algorithm 1) and DPNextFailure (Algorithm 2 with the §3.3
//     multiprocessor state approximation);
//   - the closed-form theory (optimal chunk counts via Lambert W, expected
//     makespans, E(Tlost)/E(Trec), platform-MTBF rejuvenation analysis);
//   - an experiment harness reproducing every table and figure of the
//     paper's evaluation (see the cmd/ tools and internal/exper).
//
// The package re-exports the library surface through type aliases and thin
// constructors, so downstream users never import internal packages.
//
// Quick start:
//
//	law := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
//	traces := checkpoint.GenerateTraces(law, 64, 11*checkpoint.Year, 60, 42)
//	job := &checkpoint.Job{Work: 86400, C: 600, R: 600, D: 60, Units: 64}
//	pol := checkpoint.NewDPNextFailure(law, law.Mean())
//	res, err := checkpoint.Simulate(job, pol, traces)
package checkpoint

import (
	"context"
	"io"
	"iter"

	"repro/internal/advisor"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/theory"
	"repro/internal/trace"
)

// Time unit constants (seconds).
const (
	Second = platform.Second
	Minute = platform.Minute
	Hour   = platform.Hour
	Day    = platform.Day
	Week   = platform.Week
	Year   = platform.Year
)

// Failure distributions.
type (
	// Distribution is a failure inter-arrival time law.
	Distribution = dist.Distribution
	// Exponential is the memoryless law with rate Lambda.
	Exponential = dist.Exponential
	// Weibull is the two-parameter Weibull law (Shape k, Scale lambda).
	Weibull = dist.Weibull
	// Gamma is the two-parameter Gamma law.
	Gamma = dist.Gamma
	// LogNormal is the log-normal law.
	LogNormal = dist.LogNormal
	// Empirical is the discrete law built from observed availability
	// intervals (the paper's §4.3 log-based model).
	Empirical = dist.Empirical
)

// NewExponentialMean returns an Exponential law with the given MTBF.
func NewExponentialMean(mean float64) Exponential { return dist.NewExponentialMean(mean) }

// NewExponentialRate returns an Exponential law with the given rate.
func NewExponentialRate(rate float64) Exponential { return dist.NewExponentialRate(rate) }

// NewWeibull returns a Weibull law with the given shape and scale.
func NewWeibull(shape, scale float64) Weibull { return dist.NewWeibull(shape, scale) }

// WeibullFromMeanShape returns the Weibull with the given mean and shape,
// the paper's parameterization (lambda = MTBF / Gamma(1 + 1/k)).
func WeibullFromMeanShape(mean, shape float64) Weibull {
	return dist.WeibullFromMeanShape(mean, shape)
}

// NewGamma returns a Gamma law with the given shape and scale.
func NewGamma(shape, scale float64) Gamma { return dist.NewGamma(shape, scale) }

// GammaFromMeanShape returns the Gamma with the given mean and shape.
func GammaFromMeanShape(mean, shape float64) Gamma { return dist.GammaFromMeanShape(mean, shape) }

// LogNormalFromMeanSigma returns the LogNormal with the given mean and
// log-space sigma.
func LogNormalFromMeanSigma(mean, sigma float64) LogNormal {
	return dist.LogNormalFromMeanSigma(mean, sigma)
}

// NewLogNormal returns a LogNormal law with the given log-space
// parameters.
func NewLogNormal(mu, sigma float64) LogNormal { return dist.NewLogNormal(mu, sigma) }

// NewEmpirical builds the discrete log-based law from availability
// durations.
func NewEmpirical(durations []float64) *Empirical { return dist.NewEmpirical(durations) }

// FitWeibull computes the maximum-likelihood Weibull fit of availability
// durations (the §4.3 log-analysis step).
func FitWeibull(samples []float64) (Weibull, error) { return dist.FitWeibull(samples) }

// FitExponential computes the maximum-likelihood Exponential fit.
func FitExponential(samples []float64) (Exponential, error) { return dist.FitExponential(samples) }

// LogLikelihood scores samples under a law, for model comparison.
func LogLikelihood(d Distribution, samples []float64) float64 {
	return dist.LogLikelihood(d, samples)
}

// Failure traces.
type (
	// TraceSet holds per-unit absolute failure dates over a horizon.
	TraceSet = trace.Set
	// LogSpec parameterizes the synthetic LANL-like availability logs.
	LogSpec = trace.LogSpec
)

// Synthetic log presets mimicking the two LANL clusters used in §6.
var (
	Cluster18 = trace.Cluster18
	Cluster19 = trace.Cluster19
)

// GenerateTraces draws failure dates for `units` units over the horizon:
// renewal inter-arrival times from d, each failure followed by `downtime`
// before a fresh lifetime starts. Unit u always uses substream u of the
// seed, so traces for small platforms are prefixes of larger ones.
func GenerateTraces(d Distribution, units int, horizon, downtime float64, seed uint64) *TraceSet {
	return trace.GenerateRenewal(d, units, horizon, downtime, seed)
}

// SyntheticLog draws availability durations following the spec (see
// DESIGN.md for the calibration against the published LANL statistics).
func SyntheticLog(spec LogSpec, n int, seed uint64) []float64 {
	return trace.SyntheticLog(spec, n, seed)
}

// Simulation.
type (
	// Job describes a checkpointed tightly-coupled parallel job.
	Job = sim.Job
	// State is the information a policy sees at each decision point.
	State = sim.State
	// Policy decides chunk sizes between checkpoints.
	Policy = sim.Policy
	// Result is a simulated run's accounting.
	Result = sim.Result
)

// Simulate runs the job under the policy against the failure trace. The
// context cancels or deadline-bounds the simulation; an uncancelled
// context never changes the result.
func Simulate(ctx context.Context, job *Job, pol Policy, ts *TraceSet) (Result, error) {
	return sim.Run(ctx, job, pol, ts)
}

// SimulateLowerBound runs the omniscient bound of §4.1: it knows every
// failure date, checkpoints just in time and never loses work.
func SimulateLowerBound(ctx context.Context, job *Job, ts *TraceSet) (Result, error) {
	return sim.LowerBound(ctx, job, ts)
}

// SimulateReplicated runs the job under n-way replication — the §8
// future-work scheme the paper sketches: the platform is split into n
// groups that all execute each chunk from the shared checkpoint, the first
// group to finish commits it. job.Units is the per-replica unit count; the
// run consumes job.Units*n units of the trace.
func SimulateReplicated(ctx context.Context, job *Job, pol Policy, ts *TraceSet, n int) (Result, error) {
	return sim.RunReplicated(ctx, job, pol, ts, n)
}

// Online advisor sessions: the simulator's decision loop as a
// first-class event-driven API (see internal/advisor). A Session is
// driven by an external scheduler — Advise returns the next
// chunk/checkpoint decision with its rationale, Observe feeds progress,
// checkpoint, failure and recovery events back. Simulate itself is a
// client of this API, so online decisions are bit-identical to the
// paper's batch evaluation.
type (
	// Advisor is an immutable session factory: a job plus a policy
	// recipe, sharing planning structures across the sessions it mints.
	Advisor = advisor.Advisor
	// Session is one stateful advisory conversation.
	Session = advisor.Session
	// SessionConfig assembles a Session.
	SessionConfig = advisor.Config
	// Event is one observation fed to a session.
	Event = advisor.Event
	// EventKind names the observation kinds.
	EventKind = advisor.EventKind
	// Decision is one checkpoint recommendation with its rationale.
	Decision = advisor.Decision
	// PastFailure seeds pre-start failure history.
	PastFailure = advisor.PastFailure
	// SessionSpec is the declarative (JSON) form of a session.
	SessionSpec = spec.SessionSpec
)

// Event kinds accepted by Session.Observe.
const (
	EventProgress     = advisor.EventProgress
	EventCheckpointed = advisor.EventCheckpointed
	EventFailure      = advisor.EventFailure
	EventRecovered    = advisor.EventRecovered
)

// NewSession builds an online advisory session around a policy instance:
// the event-driven form of Simulate for live schedulers.
func NewSession(cfg SessionConfig) (*Session, error) { return advisor.NewSession(cfg) }

// NewAdvisor builds a session factory from a job and a fresh-policy
// constructor (instances may carry per-session state).
func NewAdvisor(job *Job, name string, newPolicy func() (Policy, error)) (*Advisor, error) {
	return advisor.NewAdvisor(job, name, newPolicy)
}

// CompileAdvisor compiles a declarative session spec through the policy
// registry and the engine cache — the library form of the HTTP service's
// POST /v1/sessions.
func CompileAdvisor(ctx context.Context, eng *Engine, ss *SessionSpec) (*Advisor, error) {
	return spec.CompileAdvisor(ctx, eng, ss)
}

// DecodeSessionSpec reads a declarative session spec (strict JSON:
// unknown fields are errors).
func DecodeSessionSpec(r io.Reader) (*SessionSpec, error) { return spec.DecodeSession(r) }

// SimulateSession replays a failure trace into a caller-built session
// under exactly Simulate's semantics. The session must be fresh and
// consistent with the trace (seed pre-release failures with
// PrereleaseHistory).
func SimulateSession(ctx context.Context, job *Job, sess *Session, ts *TraceSet) (Result, error) {
	return sim.RunSession(ctx, job, sess, ts)
}

// PrereleaseHistory extracts the failures preceding the job release from
// a trace — the History a session needs to start identically to Simulate.
func PrereleaseHistory(job *Job, ts *TraceSet) []PastFailure {
	return sim.PrereleaseHistory(job, ts)
}

// Policies.
type (
	// Periodic checkpoints after every Period() units of work.
	Periodic = policy.Periodic
	// DPNextFailure is the paper's Algorithm 2 policy.
	DPNextFailure = policy.DPNextFailure
	// DPNextFailurePlanner is the immutable shared planner behind
	// DPNextFailure: per-run policies from NewPolicy share its memoized
	// initial planning pass.
	DPNextFailurePlanner = policy.DPNextFailurePlanner
	// DPMakespan walks a shared DPMakespanTable (Algorithm 1).
	DPMakespan = policy.DPMakespan
	// DPMakespanTable is the immutable memoized Algorithm 1 solution.
	DPMakespanTable = policy.DPMakespanTable
	// Liu is the reconstruction of Liu et al.'s non-periodic policy.
	Liu = policy.Liu
	// DPNextFailureOption customizes DPNextFailure.
	DPNextFailureOption = policy.DPNextFailureOption
)

// NewPeriodic returns a fixed-period policy.
func NewPeriodic(name string, period float64) *Periodic { return policy.NewPeriodic(name, period) }

// NewYoung returns Young's policy: period sqrt(2*C*platformMTBF).
func NewYoung(c, platformMTBF float64) *Periodic { return policy.NewYoung(c, platformMTBF) }

// NewDalyLow returns Daly's first-order policy.
func NewDalyLow(c, platformMTBF, d, r float64) *Periodic {
	return policy.NewDalyLow(c, platformMTBF, d, r)
}

// NewDalyHigh returns Daly's higher-order policy.
func NewDalyHigh(c, platformMTBF float64) *Periodic { return policy.NewDalyHigh(c, platformMTBF) }

// NewOptExp returns the paper's optimal periodic policy for Exponential
// failures (Theorem 1 / Proposition 5): work W(p), aggregated platform
// rate p*lambda, checkpoint cost C(p).
func NewOptExp(work, platformRate, c float64) (*Periodic, error) {
	return policy.NewOptExp(work, platformRate, c)
}

// NewBouguerra returns the reconstruction of Bouguerra et al.'s periodic
// policy (all-processor rejuvenation assumption).
func NewBouguerra(work float64, units int, d Distribution, c, down, rec float64) (*Periodic, error) {
	return policy.NewBouguerra(work, units, d, c, down, rec)
}

// NewLiu returns the reconstruction of Liu et al.'s frequency-function
// policy; check Feasible before use.
func NewLiu(work float64, units int, d Distribution, c float64) (*Liu, error) {
	return policy.NewLiu(work, units, d, c)
}

// NewDPNextFailure returns a fresh DPNextFailure policy for the given
// per-unit failure law and its MTBF.
func NewDPNextFailure(d Distribution, unitMean float64, opts ...DPNextFailureOption) *DPNextFailure {
	return policy.NewDPNextFailure(d, unitMean, opts...)
}

// NewDPNextFailurePlanner returns the immutable shared Algorithm 2
// planner; hand out per-run policies with its NewPolicy method to share
// the memoized initial planning pass across runs.
func NewDPNextFailurePlanner(d Distribution, unitMean float64, opts ...DPNextFailureOption) *DPNextFailurePlanner {
	return policy.NewDPNextFailurePlanner(d, unitMean, opts...)
}

// WithQuanta sets the DPNextFailure planning resolution.
func WithQuanta(n int) DPNextFailureOption { return policy.WithQuanta(n) }

// WithStateApprox sets the §3.3 state-approximation sizes (paper: 10, 100).
func WithStateApprox(nExact, nApprox int) DPNextFailureOption {
	return policy.WithStateApprox(nExact, nApprox)
}

// WithCoarseQuanta opts DPNextFailure post-failure re-plans into the
// approximate coarse mode (n quanta, bounded value loss); the pristine
// plan stays exact. See the policy package docs for when this is safe.
func WithCoarseQuanta(n int) DPNextFailureOption { return policy.WithCoarseQuanta(n) }

// BuildDPMakespanTable precomputes the Algorithm 1 table; share it across
// runs with NewDPMakespan.
func BuildDPMakespanTable(d Distribution, work, c, r, down, tau0 float64, quanta int) (*DPMakespanTable, error) {
	return policy.BuildDPMakespanTable(d, work, c, r, down, tau0, quanta)
}

// NewDPMakespan returns a fresh per-run policy over the shared table.
func NewDPMakespan(t *DPMakespanTable) *DPMakespan { return policy.NewDPMakespan(t) }

// AggregateRenewal returns the platform-level failure law under the
// rejuvenate-everything assumption (the distribution of the minimum of
// `units` iid lifetimes): Exponential rate p*lambda, or Weibull scale
// lambda/p^(1/k).
func AggregateRenewal(d Distribution, units int) (Distribution, error) {
	return policy.AggregateRenewal(d, units)
}

// Theory (closed forms).

// OptimalExp solves Theorem 1: optimal chunk count and period for work w
// under Exponential(lambda) failures with checkpoint cost c.
func OptimalExp(w, lambda, c float64) (k0 float64, kStar int, period float64, err error) {
	return theory.OptimalExp(w, lambda, c)
}

// ExpectedMakespanExp returns the optimal expected makespan E(T*) of
// Theorem 1.
func ExpectedMakespanExp(w, lambda, c, d, r float64) (float64, error) {
	return theory.ExpectedMakespanExp(w, lambda, c, d, r)
}

// ExpTlost returns E(Tlost(x|tau)) for an arbitrary law (Weibull uses a
// closed incomplete-gamma form).
func ExpTlost(d Distribution, x, tau float64) float64 { return theory.ExpTlost(d, x, tau) }

// ExpTrec returns E(Trec), the expected failure-to-recovered duration.
func ExpTrec(d Distribution, down, rec float64) float64 { return theory.ExpTrec(d, down, rec) }

// PlatformMTBFRejuvenateAll returns the platform MTBF when every failure
// rejuvenates all p processors (Figure 1, upper model).
func PlatformMTBFRejuvenateAll(w Weibull, p int, d float64) float64 {
	return theory.PlatformMTBFRejuvenateAll(w, p, d)
}

// PlatformMTBFSingleRejuvenation returns the platform MTBF when only the
// failed processor is rejuvenated (Figure 1, lower model).
func PlatformMTBFSingleRejuvenation(mean float64, p int, d float64) float64 {
	return theory.PlatformMTBFSingleRejuvenation(mean, p, d)
}

// Platform and experiment harness.
type (
	// PlatformSpec is a Table 1 platform configuration.
	PlatformSpec = platform.Spec
	// Overhead selects constant vs proportional checkpoint costs.
	Overhead = platform.Overhead
	// WorkModel selects the parallel work model.
	WorkModel = platform.WorkModel
	// Work pairs a work model with its gamma parameter.
	Work = platform.Work
	// Scenario is one experimental configuration.
	Scenario = harness.Scenario
	// CandidateConfig tunes the standard policy set.
	CandidateConfig = harness.CandidateConfig
	// Candidate is one policy entered into an evaluation.
	Candidate = harness.Candidate
	// Evaluation aggregates degradation-from-best results.
	Evaluation = harness.Evaluation
	// Row is one policy's aggregated results within an Evaluation (see
	// Evaluation.Rows for the iter.Seq2 row iterator).
	Row = harness.Row
	// Stats is a sample summary.
	Stats = harness.Stats
	// PeriodLBConfig tunes the §4.1 PeriodLB numerical search.
	PeriodLBConfig = harness.PeriodLBConfig
)

// Overhead and work model constants.
const (
	OverheadConstant     = platform.OverheadConstant
	OverheadProportional = platform.OverheadProportional
	WorkEmbarrassing     = platform.WorkEmbarrassing
	WorkAmdahl           = platform.WorkAmdahl
	WorkKernel           = platform.WorkKernel
)

// Platform presets (Table 1).
func OneProcPlatform(mtbf float64) PlatformSpec        { return platform.OneProc(mtbf) }
func PetascalePlatform(mtbfYears float64) PlatformSpec { return platform.Petascale(mtbfYears) }
func ExascalePlatform() PlatformSpec                   { return platform.Exascale() }
func LANLNodesPlatform(nodeMTBF float64) PlatformSpec  { return platform.LANLNodes(nodeMTBF) }

// DefaultCandidateConfig mirrors the paper's §4.1 policy list.
func DefaultCandidateConfig() CandidateConfig { return harness.DefaultCandidateConfig() }

// StandardCandidates builds the paper's policy set for a scenario.
func StandardCandidates(ctx context.Context, sc Scenario, cfg CandidateConfig) ([]Candidate, error) {
	return harness.StandardCandidates(ctx, nil, sc, cfg)
}

// Evaluate runs every candidate over the scenario's traces with the §4.1
// degradation-from-best methodology. Cancelling the context aborts the
// evaluation promptly with ctx.Err().
func Evaluate(ctx context.Context, sc Scenario, cands []Candidate) (*Evaluation, error) {
	return harness.Evaluate(ctx, nil, sc, cands)
}

// Experiment engine: the bounded worker pool and shared artifact cache
// that execute every table/figure of the reproduction.
type (
	// Engine is a bounded worker pool with deterministic result ordering
	// and an optional shared artifact cache.
	Engine = engine.Engine
	// EngineConfig tunes an Engine (worker count, cache).
	EngineConfig = engine.Config
	// Cache memoizes DP tables, planners and failure traces; hits never
	// change results, they only skip recomputation.
	Cache = engine.Cache
	// CacheStats is a point-in-time cache summary.
	CacheStats = engine.CacheStats
)

// NewEngine builds an experiment engine.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// DefaultEngine returns the shared process-wide engine (all CPUs, default
// cache).
func DefaultEngine() *Engine { return engine.Default() }

// NewCache returns an artifact cache with the given byte budget
// (non-positive means the default, engine.DefaultCacheBudget).
func NewCache(budgetBytes int64) *Cache { return engine.NewCache(budgetBytes) }

// EngineRun executes cells 0..n-1 on the engine's worker pool; results are
// ordered by cell index, so the output is identical for every worker
// count. The returned error is the lowest-indexed cell error.
func EngineRun[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	return engine.Run(ctx, e, n, fn)
}

// EngineStream executes cells concurrently and delivers results to emit in
// strictly increasing index order as the contiguous prefix completes.
func EngineStream[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	return engine.Stream(ctx, e, n, fn, emit)
}

// Declarative experiment specs: JSON-serializable descriptions of laws,
// platforms, policies, scenarios and whole experiments, backed by
// name-keyed registries (see internal/spec).
type (
	// DistSpec names a registered failure-law family with parameters.
	DistSpec = spec.DistSpec
	// DistCodec builds and encodes one distribution family.
	DistCodec = spec.DistCodec
	// PolicySpec names a registered policy kind with parameters.
	PolicySpec = spec.PolicySpec
	// PolicyEnv is the scenario context a policy compiles against.
	PolicyEnv = spec.PolicyEnv
	// PlatformRef selects a platform preset or custom configuration.
	PlatformRef = spec.PlatformRef
	// PlatformCustom is a fully custom platform configuration.
	PlatformCustom = spec.PlatformCustom
	// WorkSpec is the serializable parallel work model.
	WorkSpec = spec.WorkSpec
	// ScenarioSpec is the declarative form of a Scenario.
	ScenarioSpec = spec.ScenarioSpec
	// ExperimentSpec is a complete declarative experiment.
	ExperimentSpec = spec.ExperimentSpec
	// CandidatesSpec declares a cell's policy set.
	CandidatesSpec = spec.CandidatesSpec
	// StandardSpec declares the paper's standard policy set.
	StandardSpec = spec.StandardSpec
	// PeriodLBSpec declares the §4.1 numerical period search.
	PeriodLBSpec = spec.PeriodLBSpec
	// GridSpec declares a sweep over scenario axes.
	GridSpec = spec.GridSpec
	// SeriesSpec configures the figure-style curve rendering.
	SeriesSpec = spec.SeriesSpec
	// TraceSpec is the declarative form of a failure-trace set.
	TraceSpec = spec.TraceSpec
	// CellResult is one completed experiment cell.
	CellResult = spec.CellResult
)

// Registry surface: enumerate or extend the named constructors behind the
// spec layer.
func DistFamilies() []string  { return spec.DistFamilies() }
func PolicyKinds() []string   { return spec.PolicyKinds() }
func PlatformNames() []string { return spec.PlatformNames() }

// RegisterDist adds a distribution family to the spec registry.
func RegisterDist(c DistCodec) { spec.RegisterDist(c) }

// RegisterPolicy adds a policy kind to the spec registry.
func RegisterPolicy(kind string, b spec.PolicyBuilder) { spec.RegisterPolicy(kind, b) }

// RegisterPlatform adds a platform preset to the spec registry.
func RegisterPlatform(name string, build func() PlatformSpec) { spec.RegisterPlatform(name, build) }

// LoadExperimentSpec reads a declarative experiment from a file.
func LoadExperimentSpec(path string) (*ExperimentSpec, error) { return spec.LoadExperiment(path) }

// DecodeExperimentSpec reads a declarative experiment (strict JSON:
// unknown fields are errors).
func DecodeExperimentSpec(r io.Reader) (*ExperimentSpec, error) { return spec.DecodeExperiment(r) }

// EncodeExperimentSpec writes the spec in its canonical indented form.
func EncodeExperimentSpec(w io.Writer, es *ExperimentSpec) error {
	return spec.EncodeExperiment(w, es)
}

// EncodeDist round-trips a built law to the spec that rebuilds it
// bit-identically.
func EncodeDist(d Distribution) (DistSpec, error) { return spec.EncodeDist(d) }

// RunSpec executes a declarative experiment on the engine and streams
// completed cells in deterministic expansion order (see spec.Run). The
// terminal iteration carries a non-nil error when a cell failed or the
// context was cancelled; every cell yielded before it is a valid
// deterministic prefix.
func RunSpec(ctx context.Context, eng *Engine, es *ExperimentSpec) iter.Seq2[CellResult, error] {
	return spec.Run(ctx, eng, es)
}

// RunSpecAll executes a declarative experiment and collects every cell.
func RunSpecAll(ctx context.Context, eng *Engine, es *ExperimentSpec) ([]CellResult, error) {
	return spec.RunAll(ctx, eng, es)
}

// EvaluateSpec executes an experiment that expands to exactly one cell
// and returns its result — the synchronous entry point the HTTP service's
// /v1/evaluate uses.
func EvaluateSpec(ctx context.Context, eng *Engine, es *ExperimentSpec) (CellResult, error) {
	return spec.EvaluateOne(ctx, eng, es)
}

// CanonicalSpecHash returns the experiment's stable identity: the SHA-256
// of its canonical encoding, as lowercase hex. Two specs hash equal
// exactly when they decode to the same experiment.
func CanonicalSpecHash(es *ExperimentSpec) (string, error) { return spec.CanonicalHash(es) }

// EvaluateWith runs the evaluation on the given engine: traces execute
// concurrently on its worker pool and shared artifacts come from its
// cache. The worker count never changes the result.
func EvaluateWith(ctx context.Context, eng *Engine, sc Scenario, cands []Candidate) (*Evaluation, error) {
	return harness.Evaluate(ctx, eng, sc, cands)
}

// StandardCandidatesWith builds the paper's policy set through the
// engine's cache, sharing DPMakespan tables and DPNextFailure planners
// across scenarios with the same (law, job geometry, quanta) key.
func StandardCandidatesWith(ctx context.Context, eng *Engine, sc Scenario, cfg CandidateConfig) ([]Candidate, error) {
	return harness.StandardCandidates(ctx, eng, sc, cfg)
}

// SearchPeriodLB finds the best fixed checkpointing period for the
// scenario by the §4.1 numerical search, on the engine's worker pool.
func SearchPeriodLB(ctx context.Context, eng *Engine, sc Scenario, cfg PeriodLBConfig) (float64, error) {
	return harness.SearchPeriodLB(ctx, eng, sc, cfg)
}

// DefaultPeriodLBConfig returns the laptop-scale period-search grid.
func DefaultPeriodLBConfig() PeriodLBConfig { return harness.DefaultPeriodLBConfig() }
