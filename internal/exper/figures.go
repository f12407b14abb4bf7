package exper

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
	"repro/internal/theory"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: platform MTBF vs processors under the two rejuvenation models",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: Petascale platform, Exponential failures, degradation vs processors",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPlatformFigure(ctx, w, p, platformFigure{petascale: true, weibullShape: 0})
		},
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: Exascale platform, Exponential failures, degradation vs processors",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPlatformFigure(ctx, w, p, platformFigure{petascale: false, weibullShape: 0})
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: Petascale platform, Weibull (k=0.7) failures, degradation vs processors",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPlatformFigure(ctx, w, p, platformFigure{petascale: true, weibullShape: 0.7})
		},
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: degradation vs Weibull shape parameter k on 45,208 processors",
		Spec:  func(p Params) (*spec.ExperimentSpec, error) { return fig5Spec(p), nil },
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return RunSpec(ctx, w, p, fig5Spec(p))
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: Exascale platform, Weibull (k=0.7) failures, degradation vs processors",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPlatformFigure(ctx, w, p, platformFigure{petascale: false, weibullShape: 0.7})
		},
	})
	register(Experiment{
		ID:    "fig98",
		Title: "Figure 98: makespan vs processors per application model (OptExp, Exponential)",
		Run:   runFig98,
	})
	register(Experiment{
		ID:    "fig99",
		Title: "Figure 99: makespan vs processors per application model (DPNextFailure, Weibull)",
		Run:   runFig99,
	})
}

func runFig1(ctx context.Context, w io.Writer, p Params) error {
	wb := dist.WeibullFromMeanShape(125*platform.Year, 0.7)
	const down = 60.0
	var all, single harness.Series
	all.Label = "rejuvenate-all (log2 MTBF)"
	single.Label = "single-rejuvenation (log2 MTBF)"
	for exp := 4; exp <= 22; exp += 2 {
		procs := 1 << exp
		all.X = append(all.X, float64(exp))
		single.X = append(single.X, float64(exp))
		all.Y = append(all.Y, math.Log2(theory.PlatformMTBFRejuvenateAll(wb, procs, down)))
		single.Y = append(single.Y, math.Log2(theory.PlatformMTBFSingleRejuvenation(wb.Mean(), procs, down)))
	}
	t := harness.SeriesTable(
		"Platform MTBF (log2 seconds) vs log2(processors); Weibull k=0.7, processor MTBF 125y, D=60s",
		"log2(p)", []harness.Series{all, single})
	return emit(w, p, t)
}

// platformFigure parameterizes Figures 2/3/4/6.
type platformFigure struct {
	petascale    bool
	weibullShape float64 // 0 means Exponential
}

func (f platformFigure) scenarios(p Params) []harness.Scenario {
	var spec platform.Spec
	var grid []int
	if f.petascale {
		spec = platform.Petascale(125)
		if p.Full {
			grid = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 45208}
		} else {
			grid = []int{1 << 10, 1 << 12, 1 << 14, 45208}
		}
	} else {
		spec = platform.Exascale()
		if p.Full {
			grid = []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20}
		} else {
			grid = []int{1 << 14, 1 << 17, 1 << 20}
		}
	}
	traces := p.traces(8, 600)
	if !f.petascale && !p.Full {
		traces = p.traces(5, 600)
	}
	var d dist.Distribution
	if f.weibullShape > 0 {
		d = dist.WeibullFromMeanShape(spec.MTBF, f.weibullShape)
	} else {
		d = dist.NewExponentialMean(spec.MTBF)
	}
	scs := make([]harness.Scenario, 0, len(grid))
	for _, procs := range grid {
		scs = append(scs, harness.Scenario{
			Name:     fmt.Sprintf("%s-p=%d", spec.Name, procs),
			Spec:     spec,
			P:        procs,
			Dist:     d,
			Overhead: platform.OverheadConstant,
			Work:     platform.Work{Model: platform.WorkEmbarrassing},
			Horizon:  11*platform.Year + 4*spec.W/float64(procs),
			Start:    platform.Year,
			Traces:   traces,
			Seed:     p.seed(),
		})
	}
	return scs
}

func runPlatformFigure(ctx context.Context, w io.Writer, p Params, f platformFigure) error {
	scs := f.scenarios(p)
	cfgFor := func(sc harness.Scenario) harness.CandidateConfig {
		cfg := harness.DefaultCandidateConfig()
		cfg.DPNextFailureQuanta = p.quantaOr(100, 200)
		if f.weibullShape == 0 {
			// DPMakespan is only exact for Exponential failures; the paper
			// plots it on the Exponential figures (with the rejuvenation
			// assumption) and drops it for Weibull at scale.
			cfg.DPMakespanQuanta = p.quantaOr(400, 800)
		}
		return cfg
	}
	series, err := degradationSeries(ctx, scs, cfgFor, true, p)
	if err != nil {
		return err
	}
	law := "Exponential"
	if f.weibullShape > 0 {
		law = fmt.Sprintf("Weibull k=%g", f.weibullShape)
	}
	name := "Petascale"
	if !f.petascale {
		name = "Exascale"
	}
	t := harness.SeriesTable(
		fmt.Sprintf("%s, %s failures: average degradation from best vs processors (%d traces/point)",
			name, law, scs[0].Traces),
		"processors", series)
	return emit(w, p, t)
}

// fig5Spec declares Figure 5 as a shape-axis grid sweep over the Table 4
// scenario, rendered as one pivoted curve table.
func fig5Spec(p Params) *spec.ExperimentSpec {
	var shapes []float64
	if p.Full {
		shapes = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	} else {
		shapes = []float64{0.3, 0.5, 0.7, 0.9}
	}
	traces := p.traces(8, 600)
	return &spec.ExperimentSpec{
		Name:  "fig5",
		Title: "Figure 5: degradation vs Weibull shape parameter k on 45,208 processors",
		Table: "series",
		Series: &spec.SeriesSpec{
			Title:  fmt.Sprintf("45,208 processors: degradation vs Weibull shape k (%d traces/point)", traces),
			XLabel: "shape k",
			X:      shapes,
		},
		Scenario: &spec.ScenarioSpec{
			Name:     "fig5",
			Platform: spec.PlatformRef{Preset: "petascale"},
			P:        45208,
			Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
			Horizon:  11 * platform.Year,
			Start:    platform.Year,
			Traces:   traces,
			Seed:     p.seed(),
		},
		Grid: &spec.GridSpec{Shape: shapes},
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(100, 200),
			IncludeLiu:          true,
			IncludeBouguerra:    true,
			PeriodLB:            periodLBSpec(p),
		}},
	}
}

// runFig98 reproduces Appendix D Figure 98: average makespan (days) under
// OptExp with Exponential failures for the six application models, with
// constant and platform-dependent checkpoint costs.
func runFig98(ctx context.Context, w io.Writer, p Params) error {
	return runWorkModelFigure(ctx, w, p, workModelFigure{
		policyName: "OptExp",
		weibull:    false,
		overheads:  []platform.Overhead{platform.OverheadConstant, platform.OverheadProportional},
	})
}

// runFig99 reproduces Appendix D Figure 99: average makespan (days) under
// DPNextFailure with Weibull failures for the application models.
func runFig99(ctx context.Context, w io.Writer, p Params) error {
	return runWorkModelFigure(ctx, w, p, workModelFigure{
		policyName: "DPNextFailure",
		weibull:    true,
		overheads:  []platform.Overhead{platform.OverheadConstant},
	})
}

type workModelFigure struct {
	policyName string
	weibull    bool
	overheads  []platform.Overhead
}

func workModels() []platform.Work {
	return []platform.Work{
		{Model: platform.WorkEmbarrassing},
		{Model: platform.WorkAmdahl, Gamma: 1e-6},
		{Model: platform.WorkAmdahl, Gamma: 1e-4},
		{Model: platform.WorkKernel, Gamma: 0.1},
		{Model: platform.WorkKernel, Gamma: 1},
		{Model: platform.WorkKernel, Gamma: 10},
	}
}

func runWorkModelFigure(ctx context.Context, w io.Writer, p Params, f workModelFigure) error {
	spec := platform.Petascale(125)
	var d dist.Distribution
	if f.weibull {
		d = dist.WeibullFromMeanShape(spec.MTBF, 0.7)
	} else {
		d = dist.NewExponentialMean(spec.MTBF)
	}
	var grid []int
	if p.Full {
		grid = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15}
	} else {
		grid = []int{1 << 10, 1 << 12, 1 << 14}
	}
	traces := p.traces(6, 600)
	for _, ov := range f.overheads {
		var series []harness.Series
		for _, wk := range workModels() {
			var ys []float64
			var xs []float64
			for _, procs := range grid {
				sc := harness.Scenario{
					Name:     fmt.Sprintf("fig98-%s-p=%d", wk, procs),
					Spec:     spec,
					P:        procs,
					Dist:     d,
					Overhead: ov,
					Work:     wk,
					Horizon:  11*platform.Year + 8*wk.Time(spec.W, procs),
					Start:    platform.Year,
					Traces:   traces,
					Seed:     p.seed(),
				}
				cfg := harness.CandidateConfig{}
				switch f.policyName {
				case "OptExp":
					cfg.DPNextFailureQuanta = 0
				case "DPNextFailure":
					cfg.DPNextFailureQuanta = p.quantaOr(100, 200)
				}
				cands, err := harness.StandardCandidates(ctx, p.engine(), sc, cfg)
				if err != nil {
					return err
				}
				// Keep only the single policy of interest.
				var kept []harness.Candidate
				for _, c := range cands {
					if c.Name == f.policyName && c.SkipReason == "" {
						kept = append(kept, c)
					}
				}
				if len(kept) == 0 {
					return fmt.Errorf("exper: policy %s unavailable for %s", f.policyName, sc.Name)
				}
				ev, err := harness.Evaluate(ctx, p.engine(), sc, kept)
				if err != nil {
					return err
				}
				xs = append(xs, float64(procs))
				ys = append(ys, ev.MakespanSec[f.policyName].Mean/platform.Day)
			}
			series = append(series, harness.Series{Label: wk.String(), X: xs, Y: ys})
		}
		law := "Exponential"
		if f.weibull {
			law = "Weibull k=0.7"
		}
		t := harness.SeriesTable(
			fmt.Sprintf("Average makespan (days) of %s vs processors, %s, %s overheads (%d traces/point)",
				f.policyName, law, ov, traces),
			"processors", series)
		if err := emit(w, p, t); err != nil {
			return err
		}
	}
	return nil
}

// degradationSeries evaluates each scenario with its candidate set and
// returns one degradation series per policy, with the processor count on
// the X axis.
func degradationSeries(ctx context.Context, scs []harness.Scenario, cfgFor func(harness.Scenario) harness.CandidateConfig, withPeriodLB bool, p Params) ([]harness.Series, error) {
	xs := make([]float64, len(scs))
	for i, sc := range scs {
		xs[i] = float64(sc.P)
	}
	return degradationSeriesX(ctx, scs, xs, cfgFor, withPeriodLB, p)
}

func degradationSeriesX(ctx context.Context, scs []harness.Scenario, xs []float64, cfgFor func(harness.Scenario) harness.CandidateConfig, withPeriodLB bool, p Params) ([]harness.Series, error) {
	evs := make([]*harness.Evaluation, len(scs))
	for i, sc := range scs {
		cfg := cfgFor(sc)
		if withPeriodLB {
			period, err := harness.SearchPeriodLB(ctx, p.engine(), sc, periodLBConfig(p))
			if err != nil {
				return nil, err
			}
			cfg.PeriodLBPeriod = period
		}
		cands, err := harness.StandardCandidates(ctx, p.engine(), sc, cfg)
		if err != nil {
			return nil, err
		}
		ev, err := harness.Evaluate(ctx, p.engine(), sc, cands)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	// Row order (candidate order, then skipped in candidate order) keeps
	// series columns stable across runs and worker counts.
	return pivotDegradationSeries(xs, evs), nil
}
