// Command trafficsim runs a single traffic-signal simulation on the
// paper's 3×3 evaluation network — or any registered workload — and
// prints a summary.
//
// Examples:
//
//	trafficsim -pattern II -controller util
//	trafficsim -pattern mixed -controller cap -period 20
//	trafficsim -pattern I -controller orig -period 16 -duration 1800 -seed 7
//	trafficsim -pattern II -controller util -sensor cv:0.3
//	trafficsim -workload arterial-corridor -controller util
//	trafficsim -workload estimated-grid -sensor loop
//	trafficsim -workload city-grid -control per-junction
//	trafficsim -events "incident:link=J00->J01,t0=600,dur=300,cap=0.5;surge:t0=600,dur=900,scale=1.5"
//	trafficsim -snapshot-at 1800 -snapshot-out run.snap
//	trafficsim -restore-from run.snap
//	trafficsim -telemetry full -telemetry-out series.csv
//	trafficsim -workload city-grid-incident -telemetry net -telemetry-out drain.jsonl
//	trafficsim -trace-out substeps.json
//	trafficsim -list-workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"utilbp/internal/cli"
	"utilbp/internal/config"
	"utilbp/internal/event"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/telemetry"
	"utilbp/internal/trace"
)

func main() {
	var (
		patternFlag = flag.String("pattern", "II", "traffic pattern: I, II, III, IV, mixed, rush")
		controller  = flag.String("controller", "", "controller spec: util | cap[:period] | capnorm[:period] | orig[:period] | fixed[:green] | maxpressure[:minGreen] | gapout[:min,max,gap] | bp-est[:alpha] (default: the workload's controller, else util)")
		period      = flag.Int("period", 16, "control phase period in seconds (fixed-slot controllers)")
		duration    = flag.Float64("duration", 0, "simulation horizon in seconds (0 = pattern default)")
		seed        = flag.Uint64("seed", 1, "random seed")
		rows        = flag.Int("rows", 3, "grid rows")
		cols        = flag.Int("cols", 3, "grid columns")
		capacity    = flag.Int("capacity", 120, "road capacity W")
		amber       = flag.Int("amber", 4, "transition phase duration in seconds")
		mu          = flag.Float64("mu", 0, "service rate per movement in veh/s (0 = scenario default)")
		lost        = flag.Int("startup-lost", 0, "startup lost time in seconds at green onset (0 = default, -1 = off)")
		mixedLanes  = flag.Bool("mixed-lanes", false, "enable the head-of-line blocking extension")
		configPath  = flag.String("config", "", "JSON experiment config (overrides the other flags)")
		vehOut      = flag.String("vehicles-out", "", "write per-vehicle lifecycle CSV to this path")
		workload    = flag.String("workload", "", "registered workload providing pattern and grid defaults; explicit -rows/-cols/-capacity still apply (see -list-workloads)")
		listWk      = flag.Bool("list-workloads", false, "list the registered workloads and exit")
		sensorFlag  = flag.String("sensor", "", "observation sensor: perfect | loop | cv:<rate> (default: the workload's sensor, else perfect)")
		eventsFlag  = flag.String("events", "", "disruption schedule, ';'-separated event specs (see internal/event); REPLACES the workload's schedule — pass '' to run a disrupted workload clean")
		controlFlag = flag.String("control", "", "controller dispatch mode: auto | per-junction | batched (default auto: batched when the controller supports it)")
		snapAt      = flag.Float64("snapshot-at", 0, "capture an engine snapshot after this many simulated seconds (requires -snapshot-out)")
		snapOut     = flag.String("snapshot-out", "", "write the -snapshot-at snapshot to this path and continue the run")
		restoreFrom = flag.String("restore-from", "", "resume the run from a snapshot file written by -snapshot-out; the flags must rebuild the captured configuration")
		telemFlag   = flag.String("telemetry", "", "telemetry spec: off | net | net+junc:<ids> | full — record per-step metric series while the run executes (see -telemetry-out)")
		telemOut    = flag.String("telemetry-out", "", "write the recorded telemetry series to this path: CSV columns, or one JSON object per step for a .jsonl path (requires -telemetry)")
		traceOut    = flag.String("trace-out", "", "write the run's substep timeline to this path as Chrome trace-event JSON (load in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	if *listWk {
		for _, w := range scenario.Workloads() {
			events := event.Summarize(w.Setup.Events)
			if events == "" {
				events = "—"
			}
			fmt.Printf("%-18s %d×%d grid, pattern %-5v controller %-10s sensor %-8s events %-18s — %s\n",
				w.Name, w.Setup.Grid.Rows, w.Setup.Grid.Cols, w.Pattern, w.Controller, w.Setup.Sensor, events, w.Description)
		}
		return
	}

	if *configPath != "" {
		exp, err := config.LoadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		spec, err := exp.Spec()
		if err != nil {
			fatal(err)
		}
		res, err := experiment.Run(spec)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		return
	}

	var (
		pattern scenario.Pattern
		setup   scenario.Setup
		err     error
	)
	// The workload's registered controller fills an empty -controller;
	// outside workloads the default stays the paper's UTIL-BP.
	ctlSpec := "util"
	if *workload != "" {
		w, ok := scenario.WorkloadByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (run -list-workloads)", *workload))
		}
		setup, pattern = w.Setup, w.Pattern
		ctlSpec = w.Controller.String()
		// Explicitly passed geometry flags still apply on top of the
		// workload's setup, like -seed/-amber/-mu below; a conflicting
		// explicit -pattern is rejected rather than silently ignored.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pattern":
				fatal(fmt.Errorf("-pattern conflicts with -workload %s (the workload fixes the pattern to %v)", w.Name, w.Pattern))
			case "rows":
				setup.Grid.Rows = *rows
			case "cols":
				setup.Grid.Cols = *cols
			case "capacity":
				setup.Grid.Capacity = *capacity
			}
		})
	} else {
		pattern, err = cli.ParsePattern(*patternFlag)
		if err != nil {
			fatal(err)
		}
		setup = scenario.Default()
		setup.Grid.Rows = *rows
		setup.Grid.Cols = *cols
		setup.Grid.Capacity = *capacity
	}
	setup.Seed = *seed
	setup.AmberSec = *amber
	if *mu > 0 {
		setup.Grid.Mu = *mu
	}
	if *sensorFlag != "" {
		spec, err := sensing.ParseSpec(*sensorFlag)
		if err != nil {
			fatal(err)
		}
		setup.Sensor = spec
	}
	if *controlFlag != "" {
		mode, err := signal.ParseControlMode(*controlFlag)
		if err != nil {
			fatal(err)
		}
		setup.Control = mode
	}
	// -events replaces the setup's schedule rather than appending to it,
	// so an explicitly empty -events runs a disrupted workload clean.
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "events" {
			return
		}
		specs, err := event.ParseSpecs(*eventsFlag)
		if err != nil {
			fatal(err)
		}
		setup.Events = specs
	})

	if *controller != "" {
		ctlSpec = *controller
	}
	factory, err := cli.PickFactory(setup, ctlSpec, *period)
	if err != nil {
		fatal(err)
	}
	spec := experiment.Spec{
		Setup:            setup,
		Pattern:          pattern,
		Factory:          factory,
		DurationSec:      *duration,
		MixedLanes:       *mixedLanes,
		StartupLostSteps: *lost,
	}
	if (*snapOut != "") != (*snapAt > 0) {
		fatal(fmt.Errorf("-snapshot-at and -snapshot-out must be used together"))
	}
	if *telemOut != "" && *telemFlag == "" {
		fatal(fmt.Errorf("-telemetry-out requires -telemetry"))
	}
	engine, _, horizon, err := experiment.Prepare(spec)
	if err != nil {
		fatal(err)
	}
	var rec *telemetry.Recorder
	if *telemFlag != "" {
		tspec, err := telemetry.ParseSpec(*telemFlag)
		if err != nil {
			fatal(err)
		}
		if tspec.Off() && *telemOut != "" {
			fatal(fmt.Errorf("-telemetry off records nothing to write to %s", *telemOut))
		}
		if !tspec.Off() {
			// Ring sized for the whole horizon: the export carries every
			// step of the run.
			rec, err = telemetry.NewRecorder(tspec, int(math.Ceil(horizon/engine.DeltaT()))+1)
			if err != nil {
				fatal(err)
			}
			if err := engine.InstallTelemetry(rec); err != nil {
				fatal(err)
			}
		}
	}
	if *restoreFrom != "" {
		data, err := os.ReadFile(*restoreFrom)
		if err != nil {
			fatal(err)
		}
		if err := engine.Restore(data); err != nil {
			fatal(err)
		}
		fmt.Printf("restored          <- %s (t=%.0fs)\n", *restoreFrom, engine.Time())
	}
	if err := checkWindow(engine.Time(), *snapAt, horizon); err != nil {
		fatal(err)
	}
	if *snapOut != "" {
		engine.RunFor(*snapAt - engine.Time())
		if err := os.WriteFile(*snapOut, engine.Snapshot(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot          -> %s (t=%.0fs)\n", *snapOut, engine.Time())
	}
	steps := int(math.Round((horizon - engine.Time()) / engine.DeltaT()))
	var tl *sim.TraceLog
	if *traceOut != "" {
		tl = sim.NewTraceLog(steps)
		engine.RunTraced(steps, tl)
	} else {
		engine.Run(steps)
	}
	res, err := experiment.Finish(engine, factory, pattern, horizon)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if *telemOut != "" {
		if err := writeTelemetry(*telemOut, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry series  -> %s (%d steps, %d channels)\n", *telemOut, rec.Len(), len(rec.Headers()))
	}
	if tl != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteTraceEvents(f, sim.SubstepNames[:], tl.Spans[:]); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("substep trace     -> %s (%d steps)\n", *traceOut, tl.Steps())
	}
	if *vehOut == "" {
		return
	}
	f, err := os.Create(*vehOut)
	if err != nil {
		fatal(err)
	}
	if err := trace.WriteVehicles(f, engine.Vehicles()); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("vehicle records   -> %s\n", *vehOut)
}

// checkWindow rejects checkpoints outside the run, before any step and
// any file: a snapshot restored (at restoredAt, 0 without one) past the
// horizon, and a -snapshot-at (0 or less = none) that does not fall
// after the restored time and within the horizon.
func checkWindow(restoredAt, snapshotAt, horizon float64) error {
	if restoredAt > horizon {
		return fmt.Errorf("restored snapshot is at t=%g s, past the %g s horizon", restoredAt, horizon)
	}
	if snapshotAt > 0 && (snapshotAt <= restoredAt || snapshotAt > horizon) {
		return fmt.Errorf("-snapshot-at %g s is outside the run: it must be after t=%g s and at most the %g s horizon", snapshotAt, restoredAt, horizon)
	}
	return nil
}

// writeTelemetry exports the recorded series: CSV columns by default,
// one JSON object per step for a .jsonl path.
func writeTelemetry(path string, rec *telemetry.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	headers, cols := rec.Headers(), rec.Columns()
	if strings.HasSuffix(path, ".jsonl") {
		enc := json.NewEncoder(f)
		row := make(map[string]float64, len(headers))
		for i := 0; i < rec.Len(); i++ {
			for c, h := range headers {
				row[h] = cols[c][i]
			}
			if err := enc.Encode(row); err != nil {
				f.Close()
				return err
			}
		}
	} else if err := trace.WriteSeries(f, headers, cols...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(res experiment.Result) {
	s := res.Summary
	fmt.Printf("controller        %s\n", res.Controller)
	fmt.Printf("pattern           %v (%s)\n", res.Pattern, res.Pattern.Description())
	fmt.Printf("horizon           %.0f s\n", res.DurationSec)
	fmt.Printf("vehicles          %d spawned, %d exited (%.1f%% complete)\n",
		s.Spawned, s.Exited, s.CompletionRate*100)
	fmt.Printf("avg queuing time  %.2f s (exited-only %.2f s)\n", s.MeanWait, s.MeanWaitExited)
	fmt.Printf("queuing p50/p90/p99  %.1f / %.1f / %.1f s\n", s.P50, s.P90, s.P99)
	fmt.Printf("max queuing time  %.1f s\n", s.MaxWait)
	fmt.Printf("avg trip time     %.1f s\n", s.MeanTripTime)
	fmt.Printf("junction services %d\n", res.Totals.Served)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trafficsim:", err)
	os.Exit(1)
}
