// Package experiment is the reproduction harness: it wires scenarios,
// controllers and recorders into simulation runs and regenerates every
// table and figure of the paper's Section V (see the per-experiment index
// in DESIGN.md).
package experiment

import (
	"fmt"

	"utilbp/internal/analysis"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/stats"
)

// Spec describes one simulation run.
type Spec struct {
	// Setup provides the constants; zero value uses the paper defaults.
	Setup scenario.Setup
	// Pattern selects the Table II demand.
	Pattern scenario.Pattern
	// Factory builds the controller under test.
	Factory signal.Factory
	// DurationSec overrides the pattern's default horizon when > 0.
	DurationSec float64
	// MixedLanes enables the head-of-line-blocking extension.
	MixedLanes bool
	// StartupLostSteps overrides the engine's startup lost time
	// (0 = engine default of 2 s, negative disables).
	StartupLostSteps int
}

// Result summarizes one run.
type Result struct {
	Controller  string
	Pattern     scenario.Pattern
	DurationSec float64
	Summary     stats.WaitSummary
	Totals      sim.Totals
}

// Prepare builds the engine for a spec. It returns the engine, the
// built scenario instance, and the horizon in seconds. Every single run
// has one shape: Prepare, then the caller steps the engine (reading any
// per-step series between Run calls, or off an installed telemetry
// recorder), then Finish.
func Prepare(spec Spec) (*sim.Engine, *scenario.Instance, float64, error) {
	if spec.Factory == nil {
		return nil, nil, 0, fmt.Errorf("experiment: Spec.Factory is required")
	}
	built, err := spec.Setup.Build(spec.Pattern)
	if err != nil {
		return nil, nil, 0, err
	}
	duration := built.Duration
	if spec.DurationSec > 0 {
		duration = spec.DurationSec
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      spec.Factory,
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Sensor:           built.Sensor,
		Control:          built.Setup.Control,
		Events:           built.Events,
		MixedLanes:       spec.MixedLanes,
		StartupLostSteps: spec.StartupLostSteps,
		ExpectedVehicles: built.ExpectedVehicles(duration),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return engine, built, duration, nil
}

// Run executes a spec to completion and summarizes it.
func Run(spec Spec) (Result, error) {
	engine, _, duration, err := Prepare(spec)
	if err != nil {
		return Result{}, err
	}
	engine.RunFor(duration)
	return Finish(engine, spec.Factory, spec.Pattern, duration)
}

// Finish is the one tail of every single run, once the caller has
// stepped the engine to its horizon: it finalizes the waits of vehicles
// still in the network, checks the engine's invariants and summarizes
// the run. duration is reported as the run's horizon.
func Finish(engine *sim.Engine, factory signal.Factory, pattern scenario.Pattern, duration float64) (Result, error) {
	engine.FinalizeWaits()
	if err := engine.CheckInvariants(); err != nil {
		return Result{}, err
	}
	return Result{
		Controller:  factory.Name(),
		Pattern:     pattern,
		DurationSec: duration,
		Summary:     stats.SummarizeArena(engine.Arena()),
		Totals:      engine.Totals(),
	}, nil
}

// PeriodPoint is one x-y point of Figure 2: a CAP-BP control period and
// the resulting network-average queuing time.
type PeriodPoint struct {
	PeriodSec int
	MeanWait  float64
}

// DefaultPeriods returns the Figure 2 sweep range: 10..80 s in 2 s steps.
func DefaultPeriods() []int {
	var out []int
	for p := 10; p <= 80; p += 2 {
		out = append(out, p)
	}
	return out
}

// CoarsePeriods returns a faster sweep (10..80 step 10) for tests and
// benchmarks that only need the curve's shape.
func CoarsePeriods() []int {
	var out []int
	for p := 10; p <= 80; p += 10 {
		out = append(out, p)
	}
	return out
}

// SweepCAPPeriods runs CAP-BP over the given control periods for one
// pattern, the solid curve of Figure 2: the CAP-BP half of a Table III
// group on the setup's seed. The runs execute on the pooled sweep
// runner (runSweep), reusing cached engines; results are returned in
// period order.
func SweepCAPPeriods(setup scenario.Setup, pattern scenario.Pattern, periods []int, durationSec float64) ([]PeriodPoint, error) {
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	results, err := runSweep(true, []scenario.Setup{setup}, periodCells(setup, pattern, periods, durationSec))
	if err != nil {
		return nil, err
	}
	return periodPoints(periods, results), nil
}

// periodPoints pairs the leading CAP-BP results of a Table III group
// with their control periods.
func periodPoints(periods []int, results []Result) []PeriodPoint {
	points := make([]PeriodPoint, len(periods))
	for i, p := range periods {
		points[i] = PeriodPoint{PeriodSec: p, MeanWait: results[i].Summary.MeanWait}
	}
	return points
}

// BestPeriod returns the sweep point with the lowest mean wait.
func BestPeriod(points []PeriodPoint) (PeriodPoint, error) {
	if len(points) == 0 {
		return PeriodPoint{}, fmt.Errorf("experiment: empty sweep")
	}
	waits := make([]float64, len(points))
	for i, p := range points {
		waits[i] = p.MeanWait
	}
	return points[analysis.ArgMin(waits)], nil
}
