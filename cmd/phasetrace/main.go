// Command phasetrace reproduces the raw data of the paper's Figures 3-5:
// the control phases applied at the top-right intersection over time and
// the queue-length series of its east approach, for a chosen controller
// under Pattern I (or any other pattern). Output goes to CSV files plus a
// text summary on stdout.
//
// Example:
//
//	phasetrace -controller util -pattern I -duration 2000 -out fig4.csv
//	phasetrace -controller cap -period 18 -pattern I -duration 2000 -out fig3.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"utilbp/internal/cli"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/trace"
)

func main() {
	var (
		patternFlag = flag.String("pattern", "I", "traffic pattern: I, II, III, IV, mixed")
		controller  = flag.String("controller", "util", "controller: util, cap, orig, fixed")
		period      = flag.Int("period", 18, "control phase period in seconds (fixed-slot controllers)")
		duration    = flag.Float64("duration", 2000, "simulation horizon in seconds")
		seed        = flag.Uint64("seed", 1, "random seed")
		row         = flag.Int("row", 0, "junction row (0 = north)")
		col         = flag.Int("col", 2, "junction column (2 = east in the 3x3 grid)")
		out         = flag.String("out", "", "phase-timeline CSV path (empty = skip)")
		queueOut    = flag.String("queue-out", "", "east-approach queue series CSV path (empty = skip)")
		stride      = flag.Int("stride", 5, "queue series sampling stride in mini-slots")
		mu          = flag.Float64("mu", 0, "service rate per movement (0 = scenario default)")
	)
	flag.Parse()

	pattern, err := cli.ParsePattern(*patternFlag)
	if err != nil {
		fatal(err)
	}
	setup := scenario.Default()
	setup.Seed = *seed
	if *mu > 0 {
		setup.Grid.Mu = *mu
	}

	factory, err := cli.PickFactory(setup, *controller, *period)
	if err != nil {
		fatal(err)
	}

	tr, err := experiment.TraceJunction(setup, pattern, factory, *duration, *row, *col, *stride)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("controller      %s\n", tr.Controller)
	fmt.Printf("junction        (%d,%d)\n", *row, *col)
	fmt.Printf("horizon         %.0f s\n", *duration)
	fmt.Printf("transitions     %d\n", tr.Stats.Transitions)
	fmt.Printf("amber slots     %d (%.1f%%)\n", tr.Stats.AmberSlots,
		100*float64(tr.Stats.AmberSlots)/float64(len(tr.Phases)))
	fmt.Printf("mean green run  %.1f s\n", tr.Stats.MeanGreenRun*tr.DT)
	fmt.Printf("max green run   %d s\n", tr.Stats.MaxGreenRun)
	var phases []signal.Phase
	for p := range tr.Stats.GreenSlots {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, p := range phases {
		fmt.Printf("green in %v      %d s\n", p, tr.Stats.GreenSlots[p])
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.WritePhaseTimeline(f, tr.DT, tr.Phases); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("phase timeline  -> %s\n", *out)
	}

	fmt.Printf("east approach queue: mean %.2f, max %d\n", tr.QueueMean, tr.QueueMax)
	if *queueOut != "" {
		f, err := os.Create(*queueOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteSeries(f, []string{"time_s", "queue"},
			tr.QueueTimes, trace.IntsToFloats(tr.Queue)); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("queue series    -> %s\n", *queueOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phasetrace:", err)
	os.Exit(1)
}
