package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/platform"
)

// quickScenario returns a small single-processor scenario that runs in
// milliseconds.
func quickScenario(d dist.Distribution) Scenario {
	spec := platform.OneProc(d.Mean())
	spec.W = 40000
	spec.CBase = 300
	spec.RBase = 300
	return Scenario{
		Name:     "quick",
		Spec:     spec,
		P:        1,
		Dist:     d,
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  1e8,
		Start:    0,
		Traces:   24,
		Seed:     7,
	}
}

func TestDeriveValidation(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	if _, err := sc.Derive(); err != nil {
		t.Fatal(err)
	}
	bad := sc
	bad.P = 0
	if _, err := bad.Derive(); err == nil {
		t.Error("P=0 accepted")
	}
	bad = sc
	bad.Traces = 0
	if _, err := bad.Derive(); err == nil {
		t.Error("Traces=0 accepted")
	}
	bad = sc
	bad.Horizon = 10
	if _, err := bad.Derive(); err == nil {
		t.Error("short horizon accepted")
	}
	bad = sc
	bad.Dist = nil
	if _, err := bad.Derive(); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestDerivedQuantities(t *testing.T) {
	spec := platform.Petascale(125)
	sc := Scenario{
		Name: "derive", Spec: spec, P: 45208,
		Dist:     dist.NewExponentialMean(125 * platform.Year),
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  11 * platform.Year, Start: platform.Year, Traces: 1, Seed: 1,
	}
	d, err := sc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if d.Units != 45208 || d.C != 600 || d.R != 600 || d.D != 60 {
		t.Errorf("derived = %+v", d)
	}
	// W(p) for the full platform is about 8 days.
	if days := d.WorkP / platform.Day; days < 7.5 || days > 8.5 {
		t.Errorf("W(p) = %v days", days)
	}
	// Platform MTBF about one day.
	if math.Abs(d.PlatformMTBF-platform.Day) > 0.02*platform.Day {
		t.Errorf("platform MTBF = %v", d.PlatformMTBF)
	}
}

func TestEvaluateExponentialSingleProc(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	cfg := DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 60
	cfg.DPMakespanQuanta = 50
	cands, err := StandardCandidates(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), nil, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	// LowerBound must be at or below 1 and every heuristic at or above 1.
	if lb := ev.Degradation["LowerBound"]; lb.Mean > 1+1e-9 {
		t.Errorf("LowerBound degradation %v > 1", lb.Mean)
	}
	for _, name := range ev.Order {
		if name == "LowerBound" {
			continue
		}
		d := ev.Degradation[name]
		if d.Min < 1-1e-9 {
			t.Errorf("%s: min degradation %v below 1", name, d.Min)
		}
		if d.N != sc.Traces {
			t.Errorf("%s: %d samples, want %d", name, d.N, sc.Traces)
		}
	}
	// At least one policy achieves the best on some trace: min == 1.
	atBest := false
	for _, name := range ev.Order {
		if name != "LowerBound" && ev.Degradation[name].Min <= 1+1e-12 {
			atBest = true
		}
	}
	if !atBest {
		t.Error("no policy ever achieves the per-trace best; reference broken")
	}
	// §5.1.1: the closed-form heuristics are close to optimal for
	// exponential failures on one processor.
	for _, name := range []string{"Young", "DalyLow", "DalyHigh", "OptExp"} {
		if d := ev.Degradation[name]; d.Mean > 1.10 {
			t.Errorf("%s degradation %v implausibly high for exponential 1-proc", name, d.Mean)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	sc := quickScenario(dist.WeibullFromMeanShape(9000, 0.7))
	sc.Traces = 8
	cfg := DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 40
	cands, err := StandardCandidates(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev1, err := Evaluate(context.Background(), nil, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := Evaluate(context.Background(), nil, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ev1.Order {
		if ev1.Degradation[name].Mean != ev2.Degradation[name].Mean {
			t.Errorf("%s: evaluation not deterministic", name)
		}
	}
}

func TestEvaluateSkipsInfeasibleLiu(t *testing.T) {
	// Weibull k=0.5 on a large platform: Liu must be reported as skipped.
	spec := platform.Petascale(125)
	sc := Scenario{
		Name: "liu-skip", Spec: spec, P: 45208,
		Dist:     dist.WeibullFromMeanShape(125*platform.Year, 0.5),
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  11 * platform.Year, Start: platform.Year,
		Traces: 2, Seed: 3,
	}
	cfg := DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 0 // keep this test fast
	cands, err := StandardCandidates(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), nil, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.Skipped["Liu"]; !ok {
		t.Error("Liu not reported as skipped")
	}
	for _, name := range ev.Order {
		if name == "Liu" {
			t.Error("skipped policy appears in results order")
		}
	}
}

func TestStandardCandidatesDPMakespanNeedsAggregableLaw(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	sc.Dist = dist.NewEmpirical([]float64{5000, 9000, 13000})
	sc.P = 1
	cfg := DefaultCandidateConfig()
	cfg.DPMakespanQuanta = 30
	cfg.IncludeLiu = false
	cfg.IncludeBouguerra = false
	cfg.DPNextFailureQuanta = 30
	cands, err := StandardCandidates(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Single unit: empirical law is fine (no aggregation needed).
	found := false
	for _, c := range cands {
		if c.Name == "DPMakespan" && c.SkipReason == "" {
			found = true
		}
	}
	if !found {
		t.Error("DPMakespan should run on a single empirical unit")
	}
}

func TestNewStats(t *testing.T) {
	s := NewStats([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("stats = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	empty := NewStats(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty stats should be NaN")
	}
}

func TestSearchPeriodLBFindsGoodPeriod(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	cfg := DefaultPeriodLBConfig()
	cfg.EvalTraces = 12
	cfg.GeometricSteps = 8
	cfg.LinearSteps = 4
	period, err := SearchPeriodLB(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The best fixed period should be within a factor ~3 of Young's.
	young := math.Sqrt(2 * 300 * 9060)
	if period < young/3 || period > young*3 {
		t.Errorf("PeriodLB found %v, Young is %v", period, young)
	}
}

func TestPeriodVariationUShape(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(4000))
	sc.Traces = 30
	cfg := DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 0
	cfg.IncludeLiu = false
	cfg.IncludeBouguerra = false
	points, ev, err := PeriodVariation(context.Background(), nil, sc, cfg, []float64{-4, -2, 0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || len(points) != 5 {
		t.Fatalf("points = %v", points)
	}
	// The sweep must be U-shaped around factor 0: extremes worse.
	mid := points[2].Degradation.Mean
	if points[0].Degradation.Mean <= mid || points[4].Degradation.Mean <= mid {
		t.Errorf("no U-shape: %v", points)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var text bytes.Buffer
	if err := tab.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Errorf("text output:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "a,bee\n1,2\n333,4\n" {
		t.Errorf("csv output %q", got)
	}
}

func TestDegradationTableIncludesSkipped(t *testing.T) {
	ev := &Evaluation{
		Order:       []string{"LowerBound", "Young"},
		Degradation: map[string]Stats{"LowerBound": {Mean: 0.9}, "Young": {Mean: 1.02}},
		MakespanSec: map[string]Stats{"LowerBound": {Mean: 3600}, "Young": {Mean: 4000}},
		Failures:    map[string]Stats{"Young": {Mean: 3}},
		Skipped:     map[string]string{"Liu": "infeasible"},
	}
	tab := DegradationTable("t", ev)
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Liu") || !strings.Contains(out, "n/a") {
		t.Errorf("skipped policy missing:\n%s", out)
	}
}

func TestSeriesTable(t *testing.T) {
	s := []Series{
		{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.6}},
		{Label: "B", X: []float64{2, 3}, Y: []float64{0.7, math.NaN()}},
	}
	tab := SeriesTable("fig", "p", s)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n/a") {
		t.Errorf("NaN cell not rendered:\n%s", buf.String())
	}
}

func TestEvaluateWeibullDPNextFailureWins(t *testing.T) {
	// The headline qualitative result (§5.2.2, Figure 4 / Table 4): on a
	// large platform with Weibull k=0.7 failures, DPNextFailure beats the
	// MTBF-based periodic heuristics. This scaled-down version uses fewer
	// processors and traces but must preserve the ordering.
	spec := platform.Petascale(125)
	sc := Scenario{
		Name: "weibull-win", Spec: spec, P: 45208,
		Dist:     dist.WeibullFromMeanShape(125*platform.Year, 0.7),
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  11 * platform.Year, Start: platform.Year,
		Traces: 12, Seed: 42,
	}
	cfg := DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 120
	cands, err := StandardCandidates(context.Background(), nil, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), nil, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	dpnf := ev.Degradation["DPNextFailure"].Mean
	for _, name := range []string{"Young", "DalyLow", "DalyHigh", "OptExp"} {
		if ev.Degradation[name].Mean <= dpnf {
			t.Errorf("%s (%.4f) should be worse than DPNextFailure (%.4f) under Weibull k=0.7",
				name, ev.Degradation[name].Mean, dpnf)
		}
	}
	// Bouguerra's rejuvenation assumption should hurt it badly (§5.2.2).
	if b, ok := ev.Degradation["Bouguerra"]; ok {
		if b.Mean <= dpnf {
			t.Errorf("Bouguerra (%.4f) should trail DPNextFailure (%.4f)", b.Mean, dpnf)
		}
	}
}
