package exper

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "figA-period-exp",
		Title: "Appendix A (Fig 8): period-multiplier sweep, single processor, Exponential",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPeriodSweepSingleProc(ctx, w, p, false)
		},
	})
	register(Experiment{
		ID:    "figA-period-weibull",
		Title: "Appendix A (Fig 9): period-multiplier sweep, single processor, Weibull k=0.7",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPeriodSweepSingleProc(ctx, w, p, true)
		},
	})
	register(Experiment{
		ID:    "figB-matrix",
		Title: "Appendix B/C (Figs 10-97): Petascale sweep over {law} x {work model} x {overhead}",
		Run:   runAppendixMatrix,
	})
}

// runPeriodSweepSingleProc reproduces the Appendix A figures: degradation
// of fixed periods OptExp*2^f as f sweeps [-4, 4], for the three MTBFs.
func runPeriodSweepSingleProc(ctx context.Context, w io.Writer, p Params, weibull bool) error {
	var factors []float64
	if p.Full {
		for f := -4.0; f <= 4.01; f += 0.5 {
			factors = append(factors, f)
		}
	} else {
		factors = []float64{-4, -3, -2, -1, 0, 1, 2, 3, 4}
	}
	traces := p.traces(20, 600)
	for _, mtbf := range []float64{platform.Hour, platform.Day} {
		sc := singleProcScenario(mtbf, weibull, traces, p.seed())
		cfg := harness.DefaultCandidateConfig()
		cfg.DPNextFailureQuanta = p.quantaOr(60, 150)
		cfg.DPMakespanQuanta = p.quantaOr(600, 1200)
		points, ev, err := harness.PeriodVariation(ctx, p.engine(), sc, cfg, factors)
		if err != nil {
			return err
		}
		sweep := harness.Series{Label: "PeriodVariation"}
		for _, pt := range points {
			sweep.X = append(sweep.X, pt.Log2Factor)
			sweep.Y = append(sweep.Y, pt.Degradation.Mean)
		}
		// Reference lines: flat series at each fixed heuristic's level.
		var series []harness.Series
		series = append(series, sweep)
		for _, name := range ev.Order {
			deg, ok := ev.Degradation[name]
			if !ok {
				continue
			}
			series = append(series, harness.Series{
				Label: name,
				X:     []float64{0},
				Y:     []float64{deg.Mean},
			})
		}
		law := "Exponential"
		if weibull {
			law = "Weibull k=0.7"
		}
		t := harness.SeriesTable(
			fmt.Sprintf("Single processor, %s, MTBF %s: degradation vs log2(period factor) (%d traces)",
				law, humanDuration(mtbf), traces),
			"log2(factor)", series)
		if err := emit(w, p, t); err != nil {
			return err
		}
	}
	return nil
}

// runAppendixMatrix sweeps the cross-product behind Appendix B/C: for each
// failure law, work model and overhead model it reports the degradation of
// the key heuristics at one platform size, which summarizes the 88
// appendix figures' content (each figure is one cell's processor sweep;
// the paper's stated conclusion is that all cells tell the same story).
func runAppendixMatrix(ctx context.Context, w io.Writer, p Params) error {
	spec := platform.Petascale(125)
	procs := p.pick(1<<12, 45208)
	traces := p.traces(6, 600)
	laws := []struct {
		name string
		d    dist.Distribution
	}{
		{"Exponential", dist.NewExponentialMean(spec.MTBF)},
		{"Weibull(0.7)", dist.WeibullFromMeanShape(spec.MTBF, 0.7)},
	}
	overheads := []platform.Overhead{platform.OverheadConstant, platform.OverheadProportional}
	tab := &harness.Table{
		Title: fmt.Sprintf("Appendix B/C matrix at p=%d (%d traces/cell): avg degradation from best",
			procs, traces),
		Header: []string{"law", "work model", "overheads", "Young", "DalyHigh", "OptExp", "Bouguerra", "DPNextFailure"},
	}
	for _, law := range laws {
		for _, wk := range workModels() {
			for _, ov := range overheads {
				sc := harness.Scenario{
					Name:     fmt.Sprintf("matrix-%s-%s-%s", law.name, wk, ov),
					Spec:     spec,
					P:        procs,
					Dist:     law.d,
					Overhead: ov,
					Work:     wk,
					Horizon:  11*platform.Year + 8*wk.Time(spec.W, procs),
					Start:    platform.Year,
					Traces:   traces,
					Seed:     p.seed(),
				}
				cfg := harness.DefaultCandidateConfig()
				cfg.DPNextFailureQuanta = p.quantaOr(80, 200)
				cfg.IncludeLiu = false
				cands, err := harness.StandardCandidates(ctx, p.engine(), sc, cfg)
				if err != nil {
					return err
				}
				ev, err := harness.Evaluate(ctx, p.engine(), sc, cands)
				if err != nil {
					return err
				}
				cell := func(name string) string {
					if d, ok := ev.Degradation[name]; ok {
						return fmt.Sprintf("%.4f", d.Mean)
					}
					return "n/a"
				}
				tab.Rows = append(tab.Rows, []string{
					law.name, wk.String(), ov.String(),
					cell("Young"), cell("DalyHigh"), cell("OptExp"),
					cell("Bouguerra"), cell("DPNextFailure"),
				})
			}
		}
	}
	return emit(w, p, tab)
}
