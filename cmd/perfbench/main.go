// Command perfbench measures the simulator's performance envelope and
// writes it to a JSON file, establishing the perf trajectory across PRs
// (BENCH_1.json, BENCH_2.json, ...; see PERF.md for the history and the
// exact regeneration commands).
//
// It reports three measurements:
//
//   - loaded engine throughput: mini-slots per second with Pattern I
//     demand flowing, including the vehicle-spawn path (which since PR 2
//     is itself allocation-free: vehicle.Plan values, pre-sized arena);
//   - steady-state stepOnce: the same loop after demand quiesces, where
//     the hot path must perform zero heap allocations;
//   - the Table III multi-seed sweep wall time, through the pooled
//     worker scheduler with its shared artifact cache and per-worker
//     engine cache, and optionally the serial fresh-engine reference
//     path;
//   - one short pooled sweep per registered scenario workload
//     (scenario.Workloads), exercising engine reuse beyond the paper's
//     3×3 grid (city-scale workloads shorten their horizon via
//     Workload.SweepHorizonSec);
//   - per-engine heap bytes for selected workloads, via
//     runtime.ReadMemStats deltas around engine construction on a shared
//     scenario artifact (the memory-layout trajectory of DESIGN.md §5).
//
// Example:
//
//	perfbench -out BENCH_3.json -seeds 8 -serial -note "shared artifacts"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/telemetry"
)

// Report is the schema of BENCH_*.json.
type Report struct {
	GeneratedBy string `json:"generated_by"`
	Note        string `json:"note,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	LoadedStep   StepReport               `json:"loaded_step"`
	SteadyStep   StepReport               `json:"steady_step"`
	Sensing      []SensorStepReport       `json:"sensing,omitempty"`
	Control      []ControlStepReport      `json:"control,omitempty"`
	Instrumented []InstrumentedStepReport `json:"instrumented,omitempty"`
	Sweeps       []SweepTime              `json:"sweeps"`
	Matrix       *MatrixReport            `json:"matrix,omitempty"`
	Robustness   []RobustnessReport       `json:"robustness,omitempty"`
	Stress       []StressReport           `json:"stress,omitempty"`
	EngineHeap   []HeapReport             `json:"engine_heap,omitempty"`
}

// StepReport summarizes a stepping measurement. The headline numbers
// come from an uninstrumented run; Phases attributes time to the
// mini-slot substeps from a second, traced run of an identical engine
// (sim.Engine.RunTraced), whose clock reads add overhead — the split is
// for attribution, not for absolute comparison.
type StepReport struct {
	Steps         int         `json:"steps"`
	WallSeconds   float64     `json:"wall_seconds"`
	NsPerStep     float64     `json:"ns_per_step"`
	StepsPerSec   float64     `json:"steps_per_sec"`
	AllocsPerStep float64     `json:"allocs_per_step"`
	BytesPerStep  float64     `json:"bytes_per_step"`
	Phases        *PhaseSplit `json:"phases,omitempty"`
}

// PhaseSplit is the per-step wall time of each mini-slot substep:
// events (disruption-schedule transitions), sense (incremental
// observation maintenance + sensor model), control (controller
// decisions), serve, travel completion and arrivals.
type PhaseSplit struct {
	EventsNs   float64 `json:"events_ns"`
	SenseNs    float64 `json:"sense_ns"`
	ControlNs  float64 `json:"control_ns"`
	ServeNs    float64 `json:"serve_ns"`
	TravelNs   float64 `json:"travel_ns"`
	ArrivalsNs float64 `json:"arrivals_ns"`
}

// SensorStepReport is one sensing-overhead measurement: steady-state
// stepping of a workload's grid with a given observation sensor
// installed, so the cost of the sensing layer is visible next to the
// sensor-free baseline.
type SensorStepReport struct {
	Workload string `json:"workload"`
	Sensor   string `json:"sensor"`
	StepReport
}

// ControlStepReport is one controller-mode measurement: steady-state
// stepping of a workload under UTIL-BP with the control substep
// dispatched per-junction or batched (DESIGN.md §11), so the batched
// control plane's win is visible in the phases.control_ns column next
// to the per-junction reference.
type ControlStepReport struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`
	StepReport
}

// InstrumentedStepReport is one telemetry-overhead measurement:
// steady-state stepping of a workload with a telemetry recorder
// installed, next to an uninstrumented baseline of an identical engine.
// OverheadPct is the ns/step increase relative to that baseline — the
// measured cost of the zero-alloc metrics plane (the recording path
// itself is CI-gated allocation-free by BenchmarkStepOnceInstrumented).
type InstrumentedStepReport struct {
	Workload  string `json:"workload"`
	Telemetry string `json:"telemetry"`
	StepReport
	BaselineNsPerStep float64 `json:"baseline_ns_per_step"`
	OverheadPct       float64 `json:"overhead_pct"`
}

// SweepTime is the wall time of one experiment-layer sweep.
type SweepTime struct {
	Name        string  `json:"name"`
	Patterns    int     `json:"patterns"`
	Seeds       int     `json:"seeds"`
	Periods     int     `json:"periods"`
	DurationSec float64 `json:"duration_sec"` // 0 = paper horizons
	WallSeconds float64 `json:"wall_seconds"`
}

// MatrixRow is one (workload × controller × sensor) row of the matrix
// sweep, seeds folded into mean ± std.
type MatrixRow struct {
	Workload       string  `json:"workload"`
	Controller     string  `json:"controller"`
	Sensor         string  `json:"sensor"`
	MeanWaitSec    float64 `json:"mean_wait_sec"`
	StdWaitSec     float64 `json:"std_wait_sec"`
	CompletionRate float64 `json:"completion_rate"`
}

// MatrixReport is the controller-zoo matrix measurement
// (experiment.MatrixSweep): every controller family crossed with the
// observation axis on the paper grid and the city-scale workloads,
// through the pooled scheduler with per-worker engine caches.
type MatrixReport struct {
	Workloads   []string    `json:"workloads"`
	Controllers []string    `json:"controllers"`
	Sensors     []string    `json:"sensors"`
	Seeds       int         `json:"seeds"`
	DurationSec float64     `json:"duration_sec"`
	Rows        []MatrixRow `json:"rows"`
	WallSeconds float64     `json:"wall_seconds"`
}

// RobustnessRow is one (controller family × incident severity) point of
// the throughput-vs-capacity-loss curve (experiment.RobustnessSweep).
type RobustnessRow struct {
	Family         string  `json:"family"`
	CapFrac        float64 `json:"cap_frac"`
	MeanWaitSec    float64 `json:"mean_wait_sec"`
	MeanThroughput float64 `json:"mean_throughput"`
	DegradationPct float64 `json:"degradation_pct"`
}

// RecoveryProbe is the queue-recovery metric of one incident run under
// UTIL-BP (experiment.MeasureRecovery) — recovery_sec is the
// post-clearance drain time, -1 when the queues never returned to their
// onset level within the horizon (DESIGN.md §12). The probe runs at a
// stable operating point — demand scaled down so queues are stationary
// before the onset — because "drained back to the onset level" is only
// meaningful when the onset level is an equilibrium, not a point on a
// growth curve.
type RecoveryProbe struct {
	RecoveryDemandScale float64 `json:"recovery_demand_scale"`
	RecoveryHorizonSec  float64 `json:"recovery_horizon_sec"`
	OnsetQueued         int     `json:"recovery_onset_queued"`
	PeakQueued          int     `json:"recovery_peak_queued"`
	RecoverySec         float64 `json:"recovery_sec"`
}

// RobustnessReport is the disruption-robustness measurement for one
// workload: the throughput-vs-capacity-loss curve across controller
// families, plus the recovery probe of a worst-severity incident.
type RobustnessReport struct {
	Workload   string          `json:"workload"`
	HorizonSec float64         `json:"horizon_sec"`
	Seeds      int             `json:"seeds"`
	Rows       []RobustnessRow `json:"rows"`
	RecoveryProbe
	WallSeconds float64 `json:"wall_seconds"`
}

// StressRow is one (controller family × area size × demand scale)
// point of the graceful-degradation surface (experiment.StressSweep):
// area_k = 0 is the undisrupted reference at the same demand.
type StressRow struct {
	Family         string  `json:"family"`
	AreaK          int     `json:"area_k"`
	DemandScale    float64 `json:"demand_scale"`
	MeanWaitSec    float64 `json:"mean_wait_sec"`
	StdWaitSec     float64 `json:"std_wait_sec"`
	MeanThroughput float64 `json:"mean_throughput"`
	DegradationPct float64 `json:"degradation_pct"`
}

// StressReport is the area-incident stress study for one workload: the
// degradation surface across controller families, area sizes and
// demand scales, plus the recovery probe of the largest area incident
// (DESIGN.md §14).
type StressReport struct {
	Workload      string      `json:"workload"`
	HorizonSec    float64     `json:"horizon_sec"`
	Seeds         int         `json:"seeds"`
	Rows          []StressRow `json:"rows"`
	RecoveryAreaK int         `json:"recovery_area_k"`
	RecoveryProbe
	WallSeconds float64 `json:"wall_seconds"`
}

// HeapReport is the per-engine memory footprint of one workload: the
// heap bytes one simulation engine retains when built on a shared
// scenario artifact (arena pre-sized for the pattern horizon, lane rings
// and travel heaps pre-sized from link capacity), plus the bytes of the
// shared artifact itself, which exists once per process regardless of
// engine count.
type HeapReport struct {
	Workload        string  `json:"workload"`
	HorizonSec      float64 `json:"horizon_sec"`
	EngineHeapBytes uint64  `json:"engine_heap_bytes"`
	SharedArtifact  uint64  `json:"shared_artifact_bytes"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH.json", "output JSON path")
		note      = flag.String("note", "", "free-form note recorded in the report")
		steps     = flag.Int("steps", 200000, "mini-slots for the loaded measurement")
		steady    = flag.Int("steady-steps", 2000, "mini-slots for the steady-state measurement (kept short so the quiesced network is still carrying traffic)")
		warmup    = flag.Int("warmup", 900, "warmup mini-slots before the steady-state measurement")
		seeds     = flag.Int("seeds", 8, "seeds for the Table III multi-seed sweep")
		seed      = flag.Uint64("seed", 1, "first seed (seeds are consecutive)")
		duration  = flag.Float64("duration", 0, "sweep horizon override in seconds (0 = paper horizons)")
		minP      = flag.Int("min-period", 10, "CAP-BP sweep start (s)")
		maxP      = flag.Int("max-period", 80, "CAP-BP sweep end (s)")
		stepP     = flag.Int("step", 10, "CAP-BP sweep step (s)")
		serial    = flag.Bool("serial", false, "also time the serial reference scheduler")
		workload  = flag.Bool("workloads", true, "time a short pooled sweep per registered workload")
		sense     = flag.Bool("sensing", true, "measure sensing overhead (steady stepping per sensor model) and the penetration sweep wall time")
		ctrlModes = flag.Bool("control-modes", true, "measure the control substep per dispatch mode (per-junction vs batched) on the paper and city grids")
		instr     = flag.Bool("instrumented", true, "measure telemetry-recording overhead (steady stepping with a recorder installed vs off) on the paper and city grids")
		wlDur     = flag.Float64("workload-duration", 900, "horizon in seconds for the workload sweeps; when left at the default, city-scale workloads shorten it via their registered SweepHorizonSec")
		matrix    = flag.Bool("matrix", true, "run the controller-zoo × sensor matrix sweep (experiment.MatrixSweep) on the paper grid and the city workloads")
		robust    = flag.Bool("robustness", true, "measure throughput under capacity loss and post-incident recovery on the paper and city grids")
		stress    = flag.Bool("stress", true, "run the area-incident stress study (experiment.StressSweep): graceful degradation across area sizes and demand scales on the paper and city grids")
		heap      = flag.Bool("heap", true, "measure per-engine heap bytes for the paper and city workloads")
	)
	flag.Parse()
	// A workload-duration the operator set explicitly applies verbatim;
	// only the default defers to each workload's registered sweep horizon.
	wlDurExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload-duration" {
			wlDurExplicit = true
		}
	})

	setup := scenario.Default()
	setup.Seed = *seed
	report := Report{
		GeneratedBy: "cmd/perfbench",
		Note:        *note,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	loaded, err := measureLoaded(setup, *steps)
	if err != nil {
		fatal(err)
	}
	report.LoadedStep = loaded
	fmt.Printf("loaded step:  %.0f steps/s, %.2f allocs/step\n", loaded.StepsPerSec, loaded.AllocsPerStep)

	steadyRep, err := measureSteady(setup, *warmup, *steady)
	if err != nil {
		fatal(err)
	}
	report.SteadyStep = steadyRep
	fmt.Printf("steady step:  %.0f steps/s, %.4f allocs/step\n", steadyRep.StepsPerSec, steadyRep.AllocsPerStep)

	if *sense {
		for _, c := range sensingCases() {
			rep, err := measureSensing(c.workload, c.label, c.spec, c.explicit, *seed, *warmup, *steady)
			if err != nil {
				fatal(err)
			}
			report.Sensing = append(report.Sensing, rep)
			fmt.Printf("sensing %s/%s: %.0f ns/step (sense %.0f ns), %.4f allocs/step\n",
				c.workload, c.label, rep.NsPerStep, rep.Phases.SenseNs, rep.AllocsPerStep)
		}
	}

	if *ctrlModes {
		for _, wl := range []string{"paper-grid", "city-grid"} {
			for _, mode := range []signal.ControlMode{signal.ControlPerJunction, signal.ControlBatched} {
				rep, err := measureControlMode(wl, mode, *seed, *warmup, *steady)
				if err != nil {
					fatal(err)
				}
				report.Control = append(report.Control, rep)
				fmt.Printf("control %s/%s: %.0f ns/step (control %.0f ns), %.4f allocs/step\n",
					wl, mode, rep.NsPerStep, rep.Phases.ControlNs, rep.AllocsPerStep)
			}
		}
	}

	if *instr {
		cases := []struct {
			workload string
			spec     telemetry.Spec
		}{
			{"paper-grid", telemetry.Net()},
			{"city-grid", telemetry.Net()},
			{"city-grid", telemetry.Full()},
		}
		for _, c := range cases {
			rep, err := measureInstrumented(c.workload, c.spec, *seed, *warmup, *steady)
			if err != nil {
				fatal(err)
			}
			report.Instrumented = append(report.Instrumented, rep)
			fmt.Printf("telemetry %s/%s: %.0f ns/step (%+.1f%% vs off), %.4f allocs/step\n",
				c.workload, c.spec, rep.NsPerStep, rep.OverheadPct, rep.AllocsPerStep)
		}
	}

	var periods []int
	for p := *minP; p <= *maxP; p += *stepP {
		periods = append(periods, p)
	}
	seedList := make([]uint64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + uint64(i)
	}

	type sweepJob struct {
		name     string
		patterns int
		periods  int
		duration float64
		run      func() error
	}
	sweeps := []sweepJob{
		{"table3_multiseed_pooled", len(scenario.AllPatterns), len(periods), *duration, func() error {
			_, err := experiment.TableIIIMultiSeed(setup, nil, periods, *duration, seedList)
			return err
		}},
	}
	if *ctrlModes {
		// The same pooled sweep with batched dispatch forced off — the
		// sweep-level controller-mode comparison (the default setup runs
		// batched via ControlAuto).
		perJunction := setup
		perJunction.Control = signal.ControlPerJunction
		sweeps = append(sweeps, sweepJob{"table3_multiseed_pooled_per-junction", len(scenario.AllPatterns), len(periods), *duration, func() error {
			_, err := experiment.TableIIIMultiSeed(perJunction, nil, periods, *duration, seedList)
			return err
		}})
	}
	if *sense {
		// The penetration sweep's "periods" column counts its sensor
		// specs: the perfect reference plus the cv:0.1..1.0 axis.
		rates := experiment.DefaultPenetrationRates()
		sweeps = append(sweeps, sweepJob{"penetration_cv_paper-grid", 1, len(rates) + 1, 900, func() error {
			_, err := experiment.PenetrationSweep(setup, scenario.PatternII, rates, seedList, 900)
			return err
		}})
	}
	if *serial {
		sweeps = append(sweeps, sweepJob{"table3_multiseed_serial", len(scenario.AllPatterns), len(periods), *duration, func() error {
			_, err := experiment.TableIIIMultiSeedSerial(setup, nil, periods, *duration, seedList)
			return err
		}})
	}
	for _, s := range sweeps {
		start := time.Now()
		if err := s.run(); err != nil {
			fatal(err)
		}
		wall := time.Since(start).Seconds()
		report.Sweeps = append(report.Sweeps, SweepTime{
			Name:        s.name,
			Patterns:    s.patterns,
			Seeds:       len(seedList),
			Periods:     s.periods,
			DurationSec: s.duration,
			WallSeconds: wall,
		})
		fmt.Printf("%s: %.3fs (%d patterns x %d seeds x %d cells + UTIL runs)\n",
			s.name, wall, s.patterns, len(seedList), s.periods)
	}

	if *workload {
		for _, w := range scenario.Workloads() {
			horizon := *wlDur
			if !wlDurExplicit {
				horizon = w.SweepHorizon(*wlDur)
			}
			start := time.Now()
			if _, err := experiment.TableIIIMultiSeed(w.Setup,
				[]scenario.Pattern{w.Pattern}, periods, horizon, seedList); err != nil {
				fatal(err)
			}
			wall := time.Since(start).Seconds()
			report.Sweeps = append(report.Sweeps, SweepTime{
				Name:        "workload_" + w.Name,
				Patterns:    1,
				Seeds:       len(seedList),
				Periods:     len(periods),
				DurationSec: horizon,
				WallSeconds: wall,
			})
			fmt.Printf("workload_%s: %.3fs (%d seeds x %d periods + UTIL runs @ %.0fs)\n",
				w.Name, wall, len(seedList), len(periods), horizon)
		}
	}

	if *matrix {
		mr, err := measureMatrix(seedList)
		if err != nil {
			fatal(err)
		}
		report.Matrix = mr
		fmt.Printf("matrix: %d rows (%d workloads x %d controllers x %d sensors x %d seeds) in %.3fs\n",
			len(mr.Rows), len(mr.Workloads), len(mr.Controllers), len(mr.Sensors), mr.Seeds, mr.WallSeconds)
	}

	if *robust {
		for _, name := range []string{"paper-grid", "city-grid"} {
			w, ok := scenario.WorkloadByName(name)
			if !ok {
				continue
			}
			rr, err := measureRobustness(w, seedList)
			if err != nil {
				fatal(err)
			}
			report.Robustness = append(report.Robustness, rr)
			rec := fmt.Sprintf("recovered %.0fs after clearance", rr.RecoverySec)
			if rr.RecoverySec < 0 {
				rec = "not recovered within horizon"
			}
			fmt.Printf("robustness %s: %d rows, onset %d peak %d queued, %s (%.3fs)\n",
				name, len(rr.Rows), rr.OnsetQueued, rr.PeakQueued, rec, rr.WallSeconds)
		}
	}

	if *stress {
		for _, name := range []string{"paper-grid", "city-grid"} {
			w, ok := scenario.WorkloadByName(name)
			if !ok {
				continue
			}
			sr, err := measureStress(w, seedList)
			if err != nil {
				fatal(err)
			}
			report.Stress = append(report.Stress, sr)
			rec := fmt.Sprintf("recovered %.0fs after clearance", sr.RecoverySec)
			if sr.RecoverySec < 0 {
				rec = "not recovered within horizon"
			}
			fmt.Printf("stress %s: %d rows (%d areas x %d demand levels), %dx%d recovery: %s (%.3fs)\n",
				name, len(sr.Rows), len(experiment.DefaultStressAreas()), len(experiment.DefaultStressDemandScales()),
				sr.RecoveryAreaK, sr.RecoveryAreaK, rec, sr.WallSeconds)
		}
	}

	if *heap {
		for _, name := range []string{"paper-grid", "city-grid", "downtown-core"} {
			w, ok := scenario.WorkloadByName(name)
			if !ok {
				continue
			}
			hr, err := measureEngineHeap(w)
			if err != nil {
				fatal(err)
			}
			report.EngineHeap = append(report.EngineHeap, hr)
			fmt.Printf("engine heap %s: %.0f KiB/engine (+%.0f KiB shared artifact) @ %.0fs horizon\n",
				name, float64(hr.EngineHeapBytes)/1024, float64(hr.SharedArtifact)/1024, hr.HorizonSec)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

// measureLoaded times the engine with Pattern I demand flowing. The
// phase split comes from a second, instrumented engine over the same
// seed and steps.
func measureLoaded(setup scenario.Setup, steps int) (StepReport, error) {
	engine, _, _, err := experiment.Prepare(experiment.Spec{
		Setup: setup, Pattern: scenario.PatternI, Factory: setup.UtilBP(),
	})
	if err != nil {
		return StepReport{}, err
	}
	rep := timeSteps(engine, steps)
	timed, _, _, err := experiment.Prepare(experiment.Spec{
		Setup: setup, Pattern: scenario.PatternI, Factory: setup.UtilBP(),
	})
	if err != nil {
		return StepReport{}, err
	}
	rep.Phases = phaseSplit(timed, steps)
	return rep, nil
}

// steadyEngine builds an engine for the workload's grid and sensor,
// warms it up under the workload's demand and cuts arrivals, leaving
// the quiesced configuration whose contract is zero allocations per
// step.
func steadyEngine(setup scenario.Setup, pattern scenario.Pattern, sensor sensing.Sensor, warmup int) (*sim.Engine, error) {
	built, err := setup.Build(pattern)
	if err != nil {
		return nil, err
	}
	if sensor != nil {
		sensor.Reseed(setup.Seed)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: warmup},
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      sensor,
		Control:     setup.Control,
	})
	if err != nil {
		return nil, err
	}
	engine.Run(warmup + 20)
	return engine, nil
}

// measureSteady times the quiesced loop on the paper grid. The window
// must stay short (the -steady-steps default): once the queued traffic
// drains to the terminals the loop steps an empty network, and a long
// window would average that in and overstate throughput.
func measureSteady(setup scenario.Setup, warmup, steps int) (StepReport, error) {
	engine, err := steadyEngine(setup, scenario.PatternI, nil, warmup)
	if err != nil {
		return StepReport{}, err
	}
	rep := timeSteps(engine, steps)
	timed, err := steadyEngine(setup, scenario.PatternI, nil, warmup)
	if err != nil {
		return StepReport{}, err
	}
	rep.Phases = phaseSplit(timed, steps)
	return rep, nil
}

// sensingCases enumerates the sensing-overhead measurements: the paper
// grid under every sensor family (nil = the sensor-free fast path,
// "perfect-copy" = the explicit Perfect sensor exercising the separate
// truth array), plus the 16×16 city grid sensor-free — the incremental
// observation headline the PR 3 full-walk baseline is compared against
// in PERF.md.
func sensingCases() []struct {
	workload string
	label    string
	spec     sensing.Spec
	explicit bool // install the explicit sensor even for perfect specs
} {
	return []struct {
		workload string
		label    string
		spec     sensing.Spec
		explicit bool
	}{
		{"paper-grid", "perfect", sensing.Spec{}, false},
		{"paper-grid", "perfect-copy", sensing.Spec{}, true},
		{"paper-grid", "loop", sensing.Loop(), false},
		{"paper-grid", "cv:0.3", sensing.CV(0.3), false},
		{"city-grid", "perfect", sensing.Spec{}, false},
	}
}

// measureControlMode runs the steady-state measurement for one
// workload × controller dispatch mode, under the same seed and warmup
// as the sibling stepping measurements.
func measureControlMode(workload string, mode signal.ControlMode, seed uint64, warmup, steps int) (ControlStepReport, error) {
	w, ok := scenario.WorkloadByName(workload)
	if !ok {
		return ControlStepReport{}, fmt.Errorf("workload %q not registered", workload)
	}
	setup := w.Setup
	setup.Seed = seed
	setup.Control = mode
	engine, err := steadyEngine(setup, w.Pattern, nil, warmup)
	if err != nil {
		return ControlStepReport{}, err
	}
	rep := timeSteps(engine, steps)
	timed, err := steadyEngine(setup, w.Pattern, nil, warmup)
	if err != nil {
		return ControlStepReport{}, err
	}
	rep.Phases = phaseSplit(timed, steps)
	return ControlStepReport{Workload: workload, Mode: mode.String(), StepReport: rep}, nil
}

// measureInstrumented times steady-state stepping with a telemetry
// recorder installed against an uninstrumented baseline of an identical
// engine, under the same seed and warmup as the sibling measurements.
// Telemetry is observation-only, so both engines step the same states —
// the delta is purely the recording flush.
func measureInstrumented(workload string, spec telemetry.Spec, seed uint64, warmup, steps int) (InstrumentedStepReport, error) {
	w, ok := scenario.WorkloadByName(workload)
	if !ok {
		return InstrumentedStepReport{}, fmt.Errorf("workload %q not registered", workload)
	}
	setup := w.Setup
	setup.Seed = seed
	base, err := steadyEngine(setup, w.Pattern, nil, warmup)
	if err != nil {
		return InstrumentedStepReport{}, err
	}
	baseRep := timeSteps(base, steps)
	inst, err := steadyEngine(setup, w.Pattern, nil, warmup)
	if err != nil {
		return InstrumentedStepReport{}, err
	}
	rec, err := telemetry.NewRecorder(spec, steps)
	if err != nil {
		return InstrumentedStepReport{}, err
	}
	if err := inst.InstallTelemetry(rec); err != nil {
		return InstrumentedStepReport{}, err
	}
	rep := timeSteps(inst, steps)
	return InstrumentedStepReport{
		Workload:          workload,
		Telemetry:         spec.String(),
		StepReport:        rep,
		BaselineNsPerStep: baseRep.NsPerStep,
		OverheadPct:       100 * (rep.NsPerStep - baseRep.NsPerStep) / baseRep.NsPerStep,
	}, nil
}

// measureSensing runs the steady-state measurement for one workload ×
// sensor combination, under the same seed and warmup as the sibling
// stepping measurements so the report's entries stay comparable.
func measureSensing(workload, label string, spec sensing.Spec, explicit bool, seed uint64, warmup, steps int) (SensorStepReport, error) {
	w, ok := scenario.WorkloadByName(workload)
	if !ok {
		return SensorStepReport{}, fmt.Errorf("workload %q not registered", workload)
	}
	setup := w.Setup
	setup.Seed = seed
	setup.Sensor = sensing.Spec{} // the sensor is installed explicitly below
	mkSensor := func() (sensing.Sensor, error) {
		if spec.Perfect() && !explicit {
			return nil, nil
		}
		return spec.New()
	}
	sensor, err := mkSensor()
	if err != nil {
		return SensorStepReport{}, err
	}
	engine, err := steadyEngine(setup, w.Pattern, sensor, warmup)
	if err != nil {
		return SensorStepReport{}, err
	}
	rep := timeSteps(engine, steps)
	sensor, err = mkSensor()
	if err != nil {
		return SensorStepReport{}, err
	}
	timed, err := steadyEngine(setup, w.Pattern, sensor, warmup)
	if err != nil {
		return SensorStepReport{}, err
	}
	rep.Phases = phaseSplit(timed, steps)
	return SensorStepReport{Workload: workload, Sensor: label, StepReport: rep}, nil
}

// measureMatrix runs the controller-zoo matrix (experiment.MatrixSweep):
// one representative spec per controller family × {perfect, cv:0.3}
// observation on the paper grid plus the city-scale and disrupted
// city workloads, the EXPERIMENTS.md §matrix rows of the report.
func measureMatrix(seeds []uint64) (*MatrixReport, error) {
	workloads := []string{"paper-grid", "city-grid", "city-grid-incident"}
	controllers := experiment.DefaultMatrixControllers()
	sensors := []sensing.Spec{{}, sensing.CV(0.3)}
	// The paper-grid's 4 h mixed horizon is sweep-scale overkill here;
	// 900 s matches the workload sweeps. City workloads keep their own
	// registered sweep horizons.
	const durationSec = 900
	start := time.Now()
	rows, err := experiment.MatrixSweep(workloads, controllers, sensors, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	rep := &MatrixReport{
		Workloads:   workloads,
		Seeds:       len(seeds),
		DurationSec: durationSec,
		WallSeconds: time.Since(start).Seconds(),
	}
	for _, c := range controllers {
		rep.Controllers = append(rep.Controllers, c.String())
	}
	for _, s := range sensors {
		rep.Sensors = append(rep.Sensors, s.String())
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, MatrixRow{
			Workload:       r.Workload,
			Controller:     r.Controller.String(),
			Sensor:         r.Sensor.String(),
			MeanWaitSec:    r.Mean,
			StdWaitSec:     r.Std,
			CompletionRate: r.CompletionRate,
		})
	}
	return rep, nil
}

// measureRobustness runs the disruption-robustness experiment for one
// workload: the pooled RobustnessSweep over the default severity axis
// (throughput-vs-capacity-loss per controller family), then one
// worst-severity incident run under UTIL-BP measuring how long the
// network queues take to drain back to their onset level after the
// incident clears.
func measureRobustness(w scenario.Workload, seeds []uint64) (RobustnessReport, error) {
	// The robustness sweep ignores the workload's shortened sweep
	// horizon: the incident spans the middle half of the run, and on
	// the 16×16 grid a 300 s horizon is all fill transient — the
	// central approach never carries enough traffic for a clamp to
	// bind. 900 s puts the incident onto a loaded network.
	horizon := math.Max(w.SweepHorizon(900), 900)
	capFracs := experiment.DefaultCapFracs()
	start := time.Now()
	rows, err := experiment.RobustnessSweep(w.Setup, w.Pattern, capFracs, seeds, horizon)
	if err != nil {
		return RobustnessReport{}, err
	}
	rep := RobustnessReport{
		Workload:   w.Name,
		HorizonSec: horizon,
		Seeds:      len(seeds),
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, RobustnessRow{
			Family:         string(r.Family),
			CapFrac:        r.CapFrac,
			MeanWaitSec:    r.Mean,
			MeanThroughput: r.MeanThroughput,
			DegradationPct: r.DegradationPct,
		})
	}
	worst := capFracs[0]
	for _, f := range capFracs {
		if f < worst {
			worst = f
		}
	}
	rep.RecoveryProbe, err = measureRecoveryProbe(w, seeds[0], horizon, func(s scenario.Setup, t0, dur float64) (scenario.Setup, error) {
		return s.WithCentralIncident(t0, dur, worst)
	})
	if err != nil {
		return RobustnessReport{}, err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// measureRecoveryProbe runs the recovery probe of a sweep over the
// given horizon on a workload, at a stable operating point: uniform
// Pattern II demand at 0.6× the workload's scale over max(2 × horizon,
// 2400 s), with the onset at mid-horizon so the fill transient (which
// runs ~1000 s on the 16×16 grid) has settled. incident arms the probed
// incident on the scaled setup from t0 for dur seconds: an eighth of
// the probe horizon, leaving the drain the remaining 3/8.
func measureRecoveryProbe(w scenario.Workload, seed uint64, horizon float64, incident func(s scenario.Setup, t0, dur float64) (scenario.Setup, error)) (RecoveryProbe, error) {
	recHorizon := math.Max(2*horizon, 2400)
	base := w.Setup
	if base.DemandScale == 0 {
		base.DemandScale = 1
	}
	base.DemandScale *= 0.6
	setup, err := incident(base, recHorizon/2, recHorizon/8)
	if err != nil {
		return RecoveryProbe{}, err
	}
	setup.Seed = seed
	rec, err := experiment.MeasureRecovery(experiment.Spec{
		Setup:       setup,
		Pattern:     scenario.PatternII,
		Factory:     setup.UtilBP(),
		DurationSec: recHorizon,
	})
	if err != nil {
		return RecoveryProbe{}, err
	}
	return RecoveryProbe{
		RecoveryDemandScale: base.DemandScale,
		RecoveryHorizonSec:  recHorizon,
		OnsetQueued:         rec.OnsetQueued,
		PeakQueued:          rec.PeakQueued,
		RecoverySec:         rec.RecoverySec,
	}, nil
}

// measureStress runs the area-incident stress study on a workload:
// experiment.StressSweep across the default area and demand axes, plus
// the recovery probe of the largest area incident.
func measureStress(w scenario.Workload, seeds []uint64) (StressReport, error) {
	// Like the robustness sweep, the stress study ignores shortened
	// sweep horizons: the area incident spans the middle half of the
	// run and needs a loaded network for the clamps to bind.
	horizon := math.Max(w.SweepHorizon(900), 900)
	areas := experiment.DefaultStressAreas()
	scales := experiment.DefaultStressDemandScales()
	start := time.Now()
	rows, err := experiment.StressSweep(w.Setup, w.Pattern, areas, scales, seeds, horizon)
	if err != nil {
		return StressReport{}, err
	}
	rep := StressReport{
		Workload:   w.Name,
		HorizonSec: horizon,
		Seeds:      len(seeds),
	}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, StressRow{
			Family:         string(r.Family),
			AreaK:          r.AreaK,
			DemandScale:    r.DemandScale,
			MeanWaitSec:    r.Mean,
			StdWaitSec:     r.Std,
			MeanThroughput: r.MeanThroughput,
			DegradationPct: r.DegradationPct,
		})
	}
	worst := 1
	for _, k := range areas {
		if k > worst {
			worst = k
		}
	}
	rep.RecoveryAreaK = worst
	rep.RecoveryProbe, err = measureRecoveryProbe(w, seeds[0], horizon, func(s scenario.Setup, t0, dur float64) (scenario.Setup, error) {
		return s.WithCornerAreaIncident(worst, t0, dur, experiment.DefaultStressCapFrac)
	})
	if err != nil {
		return StressReport{}, err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// heapNow returns the live heap after a GC cycle.
func heapNow() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measureEngineHeap builds several engines on one shared scenario
// artifact — the sweep scheduler's configuration — and reports the
// retained heap per engine (arena pre-sized for the workload's sweep
// horizon, lanes and travel heaps pre-sized from link capacity) plus the
// one-off bytes of the shared artifact.
func measureEngineHeap(w scenario.Workload) (HeapReport, error) {
	const k = 4
	before := heapNow()
	art, err := w.Setup.BuildArtifact(w.Pattern)
	if err != nil {
		return HeapReport{}, err
	}
	artBytes := heapNow() - before
	horizon := w.SweepHorizon(art.Duration)
	factory := w.Setup.UtilBP()
	engines := make([]*sim.Engine, 0, k)
	before = heapNow()
	for i := 0; i < k; i++ {
		inst := art.Instantiate()
		e, err := sim.New(sim.Config{
			Net:              inst.Grid.Network,
			Controllers:      factory,
			Demand:           inst.Demand,
			Router:           inst.Router,
			Routes:           inst.Routes,
			ExpectedVehicles: art.ExpectedVehicles(horizon),
		})
		if err != nil {
			return HeapReport{}, err
		}
		engines = append(engines, e)
	}
	after := heapNow()
	runtime.KeepAlive(engines)
	runtime.KeepAlive(art)
	return HeapReport{
		Workload:        w.Name,
		HorizonSec:      horizon,
		EngineHeapBytes: (after - before) / k,
		SharedArtifact:  artBytes,
	}, nil
}

// phaseSplit advances a traced engine and attributes per-step time to
// the mini-slot substeps: each substep's span row of the trace log,
// summed and divided by the step count.
func phaseSplit(engine *sim.Engine, steps int) *PhaseSplit {
	tl := sim.NewTraceLog(steps)
	engine.RunTraced(steps, tl)
	var per [sim.NumSubsteps]float64
	for s, row := range tl.Spans {
		for _, d := range row {
			per[s] += float64(d.Nanoseconds())
		}
		per[s] /= float64(steps)
	}
	return &PhaseSplit{
		EventsNs:   per[0],
		SenseNs:    per[1],
		ControlNs:  per[2],
		ServeNs:    per[3],
		TravelNs:   per[4],
		ArrivalsNs: per[5],
	}
}

// timeSteps advances the engine and reports wall time and allocation
// counts per mini-slot.
func timeSteps(engine *sim.Engine, steps int) StepReport {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	engine.Run(steps)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return StepReport{
		Steps:         steps,
		WallSeconds:   wall,
		NsPerStep:     wall * 1e9 / float64(steps),
		StepsPerSec:   float64(steps) / wall,
		AllocsPerStep: float64(after.Mallocs-before.Mallocs) / float64(steps),
		BytesPerStep:  float64(after.TotalAlloc-before.TotalAlloc) / float64(steps),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
