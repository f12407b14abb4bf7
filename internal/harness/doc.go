// Package harness implements the paper's experimental methodology (§4).
//
// Paper mapping:
//
//   - Scenario: one fully specified configuration — platform spec
//     (Table 1), processor count, failure law, overhead and work models,
//     horizon/release convention (§4.1 uses a 1-year horizon and release 0
//     for single-processor runs, 11 years and a 1-year release otherwise),
//     trace count and seed (scenario.go);
//   - Evaluate: the §4.1 average-degradation-from-best
//     metric — every candidate and the omniscient LowerBound run on
//     identical traces, each trace's reference is the best heuristic
//     makespan, and per-policy statistics aggregate over traces
//     (evaluate.go). Traces execute concurrently on the experiment
//     engine's worker pool with trace-indexed aggregation, so results are
//     identical for every worker count;
//   - StandardCandidates: the §4.1 policy list,
//     with the paper's skip rules (Liu's infeasible schedules, DPMakespan
//     dropped where the paper drops it) (candidates.go);
//   - SearchPeriodLB: the §4.1 numerical period search
//     around OptExp — geometric 1.1^j grid then (1+0.05i) refinement,
//     paired traces, candidates of each phase scored concurrently
//     (periodlb.go);
//   - PeriodVariation: the Appendix A/B fixed-period sweeps at base*2^f
//     (periodlb.go);
//   - Table/Series renderers for the aligned-text and CSV artifacts
//     (table.go).
//
// Every entry point takes a context.Context threaded through the engine
// and the simulator, so a long evaluation is cancellable and
// deadline-bounded without changing results, and the *engine.Engine it
// runs on (nil means engine.Default()). Evaluation results stream
// through Evaluation.Rows, an iter.Seq2 row iterator in display order.
// The declarative layer in repro/internal/spec compiles JSON scenario
// and candidate descriptions down to this package's Scenario and
// Candidate values.
package harness
