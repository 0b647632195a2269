// Package stability probes the capacity margin of a signal controller:
// the largest uniform demand scaling under which the network remains
// stable (bounded backlog). The paper proves maximum stability only for
// the idealized back-pressure policy and explicitly defers the
// stability/utilization trade-off of UTIL-BP to future work (§VI); this
// package provides the empirical instrument for that study.
//
// Stability here is the practical, bounded-queue notion: a run is stable
// when the network backlog (vehicles in the network plus vehicles blocked
// from entering) stops growing over the second half of the horizon.
package stability

import (
	"fmt"
	"math"

	"utilbp/internal/analysis"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
)

// Options configures a probe.
type Options struct {
	// Setup and Pattern define the base scenario (DemandScale is
	// overridden by the probe).
	Setup   scenario.Setup
	Pattern scenario.Pattern
	// Factory builds the controller under test.
	Factory signal.Factory
	// HorizonSec is the per-run horizon; zero defaults to 1800 s.
	HorizonSec float64
	// MinScale and MaxScale bracket the bisection; zero defaults to
	// [0.25, 3].
	MinScale, MaxScale float64
	// Iterations is the number of bisection steps; zero defaults to 6.
	Iterations int
	// SlopeLimit is the backlog growth (vehicles per second, averaged
	// over the second half of the run) above which a run counts as
	// unstable; zero defaults to 0.05 veh/s (3 veh/min).
	SlopeLimit float64
}

func (o Options) withDefaults() Options {
	if o.HorizonSec <= 0 {
		o.HorizonSec = 1800
	}
	if o.MinScale <= 0 {
		o.MinScale = 0.25
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 3
	}
	if o.Iterations <= 0 {
		o.Iterations = 6
	}
	if o.SlopeLimit <= 0 {
		o.SlopeLimit = 0.05
	}
	return o
}

// Evaluation is one probed demand scale.
type Evaluation struct {
	Scale float64
	// Slope is the backlog growth rate in veh/s over the second half.
	Slope float64
	// FinalBacklog is spawned-minus-exited at the horizon.
	FinalBacklog int
	Stable       bool
}

// Result is the outcome of a probe.
type Result struct {
	// CriticalScale is the largest scale observed stable; demand beyond
	// it destabilized the network.
	CriticalScale float64
	// Evaluations lists every probed scale in evaluation order.
	Evaluations []Evaluation
}

// backlogEvery is the backlog sampling stride in mini-slots.
const backlogEvery = 10

// Evaluate runs one scale and classifies it. It samples the backlog,
// spawned minus exited, every backlogEvery mini-slots: that count
// includes vehicles blocked outside full entry roads, the quantity that
// grows without bound when demand exceeds what the controller can
// serve.
func Evaluate(opts Options, scale float64) (Evaluation, error) {
	opts = opts.withDefaults()
	setup := opts.Setup
	setup.DemandScale = scale
	engine, _, _, err := experiment.Prepare(experiment.Spec{
		Setup:   setup,
		Pattern: opts.Pattern,
		Factory: opts.Factory,
	})
	if err != nil {
		return Evaluation{}, err
	}
	steps := int(math.Round(opts.HorizonSec / engine.DeltaT()))
	var backlog []float64
	for k := 0; k < steps; k++ {
		engine.Run(1)
		if k%backlogEvery == 0 {
			tot := engine.Totals()
			backlog = append(backlog, float64(tot.Spawned-tot.Exited))
		}
	}
	if len(backlog) < 4 {
		return Evaluation{}, fmt.Errorf("stability: horizon %v too short to classify", opts.HorizonSec)
	}
	res, err := experiment.Finish(engine, opts.Factory, opts.Pattern, opts.HorizonSec)
	if err != nil {
		return Evaluation{}, err
	}
	half := backlog[len(backlog)/2:]
	// Trend is per sample; samples are backlogEvery steps of DeltaT
	// seconds.
	slope := analysis.Trend(half) / (backlogEvery * engine.DeltaT())
	return Evaluation{
		Scale:        scale,
		Slope:        slope,
		FinalBacklog: res.Totals.Spawned - res.Totals.Exited,
		Stable:       slope <= opts.SlopeLimit,
	}, nil
}

// Probe bisects the demand scale between MinScale and MaxScale and
// returns the largest stable scale found. If even MinScale is unstable,
// CriticalScale is 0; if MaxScale is stable, CriticalScale is MaxScale.
func Probe(opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Factory == nil {
		return Result{}, fmt.Errorf("stability: Options.Factory is required")
	}
	if opts.MinScale >= opts.MaxScale {
		return Result{}, fmt.Errorf("stability: need MinScale < MaxScale, got %v >= %v", opts.MinScale, opts.MaxScale)
	}
	var res Result

	lowEval, err := Evaluate(opts, opts.MinScale)
	if err != nil {
		return Result{}, err
	}
	res.Evaluations = append(res.Evaluations, lowEval)
	if !lowEval.Stable {
		return res, nil
	}
	highEval, err := Evaluate(opts, opts.MaxScale)
	if err != nil {
		return Result{}, err
	}
	res.Evaluations = append(res.Evaluations, highEval)
	if highEval.Stable {
		res.CriticalScale = opts.MaxScale
		return res, nil
	}

	lo, hi := opts.MinScale, opts.MaxScale
	for i := 0; i < opts.Iterations; i++ {
		mid := (lo + hi) / 2
		eval, err := Evaluate(opts, mid)
		if err != nil {
			return Result{}, err
		}
		res.Evaluations = append(res.Evaluations, eval)
		if eval.Stable {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.CriticalScale = lo
	return res, nil
}
