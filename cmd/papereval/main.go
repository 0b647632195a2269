// Command papereval regenerates the evaluation artifacts of the paper:
// Table III, the Figure 2 period sweep, and the Figure 3-5 traces. Runs
// execute in parallel across CPU cores.
//
// Examples:
//
//	papereval -table3
//	papereval -fig2 -out fig2.csv
//	papereval -all -duration 900 -step 10     # quick pass
//	papereval -drain -out artifacts           # city-grid-incident drain curve
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"utilbp/internal/cli"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/trace"
)

func main() {
	var (
		table3   = flag.Bool("table3", false, "reproduce Table III")
		ablation = flag.Bool("ablations", false, "run the UTIL-BP ablation table (DESIGN.md A1-A6)")
		seeds    = flag.Int("seeds", 0, "aggregate Table III over this many seeds (robustness)")
		fig2     = flag.Bool("fig2", false, "reproduce Figure 2 (period sweep, mixed pattern)")
		figs     = flag.Bool("figs", false, "reproduce Figures 3-5 (phase timelines + queue series)")
		matrix   = flag.Bool("matrix", false, "run the controller × sensor matrix sweep (DESIGN.md §13)")
		stress   = flag.Bool("stress", false, "run the capacity-loss and area-incident stress studies (DESIGN.md §12, §14)")
		drain    = flag.Bool("drain", false, "render the incident drain curve: telemetry net series + recovery metric (DESIGN.md §15)")
		drainW   = flag.String("drain-workload", "city-grid-incident", "workload for -drain (its setup must carry an incident event)")
		all      = flag.Bool("all", false, "reproduce everything")
		duration = flag.Float64("duration", 0, "override horizon in seconds (0 = paper defaults)")
		seed     = flag.Uint64("seed", 1, "random seed")
		minP     = flag.Int("min-period", 10, "sweep start (s)")
		maxP     = flag.Int("max-period", 80, "sweep end (s)")
		stepP    = flag.Int("step", 2, "sweep step (s)")
		mu       = flag.Float64("mu", 0, "service rate per movement (0 = scenario default)")
		outDir   = flag.String("out", "", "directory for CSV outputs (empty = no files)")
	)
	flag.Parse()
	if !*table3 && !*fig2 && !*figs && !*ablation && !*matrix && !*stress && !*drain && *seeds == 0 && !*all {
		flag.Usage()
		os.Exit(2)
	}
	setup := scenario.Default()
	setup.Seed = *seed
	if *mu > 0 {
		setup.Grid.Mu = *mu
	}
	periods, err := cli.PeriodRange(*minP, *maxP, *stepP)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *table3 || *all {
		rows, err := experiment.TableIII(setup, nil, periods, *duration)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Table III ==")
		fmt.Print(experiment.FormatTableIII(rows))
		fmt.Println()
	}

	if *seeds > 0 {
		list := make([]uint64, *seeds)
		for i := range list {
			list[i] = *seed + uint64(i)
		}
		rows, err := experiment.TableIIIMultiSeed(setup, nil, periods, *duration, list)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Table III robustness across seeds ==")
		fmt.Print(experiment.FormatSeedStats(rows, list))
		fmt.Println()
	}

	if *ablation || *all {
		rows, err := experiment.Ablations(setup, scenario.PatternIV, *duration)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== UTIL-BP ablations (Pattern IV) ==")
		fmt.Print(experiment.FormatAblations(rows))
		fmt.Println()
	}

	if *fig2 || *all {
		data, err := experiment.Fig2(setup, periods, *duration)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== Figure 2 (mixed pattern) ==")
		fmt.Print(experiment.FormatFig2(data))
		fmt.Println()
		if *outDir != "" {
			xs := make([]float64, len(data.Points))
			ys := make([]float64, len(data.Points))
			utils := make([]float64, len(data.Points))
			for i, p := range data.Points {
				xs[i] = float64(p.PeriodSec)
				ys[i] = p.MeanWait
				utils[i] = data.UTILWait
			}
			if err := writeCSV(filepath.Join(*outDir, "fig2.csv"),
				[]string{"period_s", "capbp_wait_s", "utilbp_wait_s"}, xs, ys, utils); err != nil {
				fatal(err)
			}
		}
	}

	if *figs || *all {
		figDuration := 2000.0
		if *duration > 0 {
			figDuration = *duration
		}
		// Figure 3: CAP-BP at its Pattern-I-optimal period.
		sweep, err := experiment.SweepCAPPeriods(setup, scenario.PatternI, periods, *duration)
		if err != nil {
			fatal(err)
		}
		best, err := experiment.BestPeriod(sweep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== Figures 3-5 (Pattern I, top-right junction, CAP-BP period %d s) ==\n", best.PeriodSec)
		row, col := 0, setup.Grid.Cols-1
		if setup.Grid.Cols == 0 {
			col = 2
		}
		// One run per controller feeds all three figures.
		traces := make([]experiment.JunctionTrace, 2)
		for i, factory := range []signal.Factory{setup.CapBP(best.PeriodSec), setup.UtilBP()} {
			traces[i], err = experiment.TraceJunction(setup, scenario.PatternI, factory, figDuration, row, col, 5)
			if err != nil {
				fatal(err)
			}
		}
		for i, fig := range []string{"fig3", "fig4"} {
			tr := traces[i]
			fmt.Printf("%s: %d transitions, %.1f%% amber, mean green run %.1f s, max %d s\n",
				tr.Controller, tr.Stats.Transitions,
				100*float64(tr.Stats.AmberSlots)/float64(len(tr.Phases)),
				tr.Stats.MeanGreenRun*tr.DT, tr.Stats.MaxGreenRun)
			if *outDir != "" {
				f, err := os.Create(filepath.Join(*outDir, fig+".csv"))
				if err != nil {
					fatal(err)
				}
				if err := trace.WritePhaseTimeline(f, tr.DT, tr.Phases); err != nil {
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}
		}
		for i, fig := range []string{"fig5_cap", "fig5_util"} {
			tr := traces[i]
			fmt.Printf("%s east-approach queue: mean %.2f, max %d\n", tr.Controller, tr.QueueMean, tr.QueueMax)
			if *outDir != "" {
				if err := writeCSV(filepath.Join(*outDir, fig+".csv"),
					[]string{"time_s", "queue"}, tr.QueueTimes, trace.IntsToFloats(tr.Queue)); err != nil {
					fatal(err)
				}
			}
		}
	}

	// The matrix, capacity-loss and stress studies are repo extensions
	// beyond the paper's artifacts (DESIGN.md §12-14): they aggregate
	// over a fixed pair of seeds derived from -seed, and default to a
	// 900 s horizon because none has a paper-mandated duration.
	if *matrix || *stress {
		seedPair := []uint64{*seed, *seed + 1}
		studyDuration := *duration
		if studyDuration <= 0 {
			studyDuration = 900
		}
		if *matrix {
			rows, err := experiment.MatrixSweep([]string{"paper-grid"},
				experiment.DefaultMatrixControllers(),
				[]sensing.Spec{{}, sensing.CV(0.3)},
				seedPair, studyDuration)
			if err != nil {
				fatal(err)
			}
			fmt.Println("== Controller × sensor matrix (paper grid) ==")
			fmt.Print(experiment.FormatMatrixStats(rows, seedPair))
			fmt.Println()
		}
		if *stress {
			capRows, err := experiment.RobustnessSweep(setup, scenario.PatternII, nil, seedPair, studyDuration)
			if err != nil {
				fatal(err)
			}
			fmt.Println("== Capacity-loss robustness study (paper grid, Pattern II) ==")
			fmt.Print(experiment.FormatRobustnessStats(capRows, seedPair))
			fmt.Println()
			rows, err := experiment.StressSweep(setup, scenario.PatternII, nil, nil, seedPair, studyDuration)
			if err != nil {
				fatal(err)
			}
			fmt.Println("== Area-incident stress study (paper grid, Pattern II) ==")
			fmt.Print(experiment.FormatStressStats(rows, seedPair))
			fmt.Println()
		}
	}

	// The drain curve is a repo extension too (DESIGN.md §15): the full
	// queued-total trajectory of an incident run, straight off the
	// telemetry net series MeasureRecovery computes its scalars from.
	if *drain {
		w, ok := scenario.WorkloadByName(*drainW)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see scenario.Workloads)", *drainW))
		}
		wSetup := w.Setup
		wSetup.Seed = *seed
		res, err := experiment.MeasureRecovery(experiment.Spec{
			Setup:       wSetup,
			Pattern:     w.Pattern,
			Factory:     wSetup.UtilBP(),
			DurationSec: w.SweepHorizon(*duration),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== Incident drain curve (%s, UTIL-BP) ==\n", w.Name)
		recovery := "never recovered within the horizon"
		if res.Recovered() {
			recovery = fmt.Sprintf("recovered %.0f s after clearance", res.RecoverySec)
		}
		fmt.Printf("onset queued %d, peak %d, %s; %d samples\n",
			res.OnsetQueued, res.PeakQueued, recovery, len(res.DrainQueued))
		if *outDir != "" {
			if err := writeCSV(filepath.Join(*outDir, "drain.csv"),
				[]string{"time_s", "queued"}, res.DrainTimes, res.DrainQueued); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", filepath.Join(*outDir, "drain.csv"))
		}
		fmt.Println()
	}
}

func writeCSV(path string, headers []string, cols ...[]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSeries(f, headers, cols...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "papereval:", err)
	os.Exit(1)
}
