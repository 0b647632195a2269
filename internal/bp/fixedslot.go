package bp

import (
	"fmt"

	"utilbp/internal/signal"
)

// SlotOptions configures the fixed-length-slot scheduler shared by the
// baselines: the phase chosen at a slot boundary (from the pressures
// observed at that instant, per the paper's criticism (i)) is held for
// the whole control period regardless of how queues evolve.
type SlotOptions struct {
	// PeriodSteps is the control phase period in mini-slots (the x-axis
	// of the paper's Figure 2). Required > 0.
	PeriodSteps int
	// AmberSteps is the transition-phase duration at slot boundaries.
	AmberSteps int
	// SkipRedundantAmber skips the transition phase when the newly
	// selected phase equals the current one. The default (false)
	// matches the paper's description of the conventional algorithms —
	// "each slot ends with a transition phase" — and is what gives
	// Figure 2 its interior optimum: short periods drown in amber,
	// long periods react slowly.
	SkipRedundantAmber bool
}

// Validate checks the options.
func (o SlotOptions) Validate() error {
	if o.PeriodSteps <= 0 {
		return fmt.Errorf("bp: PeriodSteps must be positive, got %d", o.PeriodSteps)
	}
	if o.AmberSteps < 0 {
		return fmt.Errorf("bp: AmberSteps must be non-negative, got %d", o.AmberSteps)
	}
	return nil
}

// Controller is a fixed-length-slot back-pressure controller: at each
// slot boundary it activates the phase with the maximum total link gain
// and holds it for the whole period.
type Controller struct {
	label string
	info  signal.JunctionInfo
	gain  GainFunc
	opts  SlotOptions
	gains []float64

	current    signal.Phase
	pending    signal.Phase
	amberUntil int // amber runs while step < amberUntil
	nextSwitch int // next slot boundary step
	started    bool
}

// NewController builds a fixed-slot controller with the given link gain.
func NewController(label string, info signal.JunctionInfo, gain GainFunc, opts SlotOptions) (*Controller, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	if gain == nil {
		return nil, fmt.Errorf("bp: gain function is required")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		label: label,
		info:  info,
		gain:  gain,
		opts:  opts,
		gains: make([]float64, info.NumLinks),
	}, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return c.label }

// Decide implements signal.Controller.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	step := obs.Step
	if step < c.amberUntil {
		return signal.Amber
	}
	if c.pending != signal.Amber {
		// Amber just expired: begin the pending phase's green period.
		c.current = c.pending
		c.pending = signal.Amber
		c.nextSwitch = step + c.opts.PeriodSteps
		return c.current
	}
	if c.started && step < c.nextSwitch {
		return c.current
	}
	// Slot boundary: select the phase with the maximum total gain from
	// the pressures observed at this instant.
	best := c.selectPhase(obs)
	if !c.started || c.opts.AmberSteps == 0 ||
		(best == c.current && c.opts.SkipRedundantAmber) {
		c.started = true
		c.current = best
		c.nextSwitch = step + c.opts.PeriodSteps
		return c.current
	}
	c.pending = best
	c.amberUntil = step + c.opts.AmberSteps
	return signal.Amber
}

// selectPhase scores every phase by total link gain. Ties keep the
// current phase (avoiding a transition), then prefer the lowest phase
// number; with every gain at zero the current phase is kept.
func (c *Controller) selectPhase(obs *signal.Obs) signal.Phase {
	for li := range obs.Links {
		c.gains[li] = c.gain(&obs.Links[li])
	}
	best := signal.Amber
	bestTotal := 0.0
	for pi := range c.info.Phases {
		total := phaseTotal(c.gains, c.info.Phases[pi])
		p := signal.Phase(pi + 1)
		if best == signal.Amber || total > bestTotal ||
			(total == bestTotal && p == c.current && best != c.current) {
			best, bestTotal = p, total
		}
	}
	if bestTotal == 0 && c.started && c.current != signal.Amber {
		return c.current
	}
	return best
}

// factory builds fixed-slot controllers with one gain function. It is
// deliberately NOT a signal.BatchFactory: a fixed-slot controller
// evaluates pressures only at slot boundaries, so there is no
// every-round gain sweep for a dense slab to amortize (unlike UTIL-BP
// on signal.NewWeightedBatch) — and a batch-capable factory would switch
// auto-mode engines onto batched dispatch, paying the change-set upkeep
// in sense with nothing consuming it. Forced batched dispatch
// (signal.ControlBatched) still works: the engine adapter-wraps the
// per-junction controllers with signal.Batched, decision-identical.
type factory struct {
	label string
	gain  GainFunc
	opts  SlotOptions
}

// Name implements signal.Factory.
func (f factory) Name() string { return f.label }

// New implements signal.Factory.
func (f factory) New(info signal.JunctionInfo) (signal.Controller, error) {
	return NewController(f.label, info, f.gain, f.opts)
}

// CAPBP returns the CAP-BP factory: capacity-aware gains on fixed slots,
// the paper's main baseline [4].
func CAPBP(opts SlotOptions) signal.Factory {
	return factory{label: "CAP-BP", gain: CapacityAwareGain, opts: opts}
}

// CAPBPApproaching returns CAP-BP with approaching vehicles counted in
// the incoming pressure, matching UTIL-BP's detector convention.
func CAPBPApproaching(opts SlotOptions) signal.Factory {
	return factory{label: "CAP-BP", gain: CapacityAwareGainApproaching, opts: opts}
}

// CAPBPNormalized returns the capacity-normalized CAP-BP variant.
func CAPBPNormalized(opts SlotOptions) signal.Factory {
	return factory{label: "CAP-BP-NORM", gain: NormalizedCapacityAwareGain, opts: opts}
}

// ORIGBP returns the original back-pressure factory of eq. (5) [3].
func ORIGBP(opts SlotOptions) signal.Factory {
	return factory{label: "ORIG-BP", gain: OriginalGain, opts: opts}
}
