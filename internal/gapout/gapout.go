// Package gapout implements a vehicle-actuated gap-out signal
// controller (SNIPPETS.md #1): phases rotate round-robin, each green
// held at least MinGreenSteps, extended while the served approach keeps
// presenting demand, terminated early when no vehicle has been detected
// for GapSteps consecutive mini-slots, and preempted unconditionally at
// MaxGreenSteps. It is the genuinely stateful controller of the zoo —
// three interacting timers (green age, detection gap, amber countdown)
// rather than a memoryless pressure argmax — which is exactly what the
// conformance suite's max-green and reset-rebuild invariants exercise
// (DESIGN.md §13).
package gapout

import (
	"fmt"

	"utilbp/internal/signal"
)

// Options parameterizes the actuated controller. The CLI spec syntax is
// gapout:min,max,gap (scenario.ParseControllerSpec).
type Options struct {
	// MinGreenSteps is the guaranteed green per phase in mini-slots.
	// Zero defaults to 8.
	MinGreenSteps int
	// MaxGreenSteps caps a green unconditionally — sustained demand
	// cannot hold a phase past it. Zero defaults to 40. Must be at
	// least MinGreenSteps.
	MaxGreenSteps int
	// GapSteps is the gap-out timer: after the minimum green, the phase
	// ends once this many consecutive mini-slots pass with no demand
	// (queued or approaching vehicle) on the served links. Zero
	// defaults to 3.
	GapSteps int
	// AmberSteps is the transition inserted between greens. Zero
	// defaults to 4.
	AmberSteps int
}

func (o Options) withDefaults() Options {
	if o.MinGreenSteps == 0 {
		o.MinGreenSteps = 8
	}
	if o.MaxGreenSteps == 0 {
		o.MaxGreenSteps = 40
	}
	if o.GapSteps == 0 {
		o.GapSteps = 3
	}
	if o.AmberSteps == 0 {
		o.AmberSteps = 4
	}
	return o
}

// Controller is the per-junction actuated controller. Its timers are
// internal — decisions are a deterministic function of the observation
// history, with the observed queue counts driving only the detection
// clock — so replays and both dispatch modes are bit-for-bit identical.
type Controller struct {
	info signal.JunctionInfo
	opts Options
	// active is the phase currently being served (Amber while in a
	// transition); pending the next green in rotation.
	active  signal.Phase
	pending signal.Phase
	// greenStart is the step the active green began; lastDemand the
	// last step its links showed demand (reset on green start, per the
	// actuated-controller convention); amberUntil the step the running
	// transition ends.
	greenStart int
	lastDemand int
	amberUntil int
}

// New builds an actuated gap-out controller for the junction.
func New(info signal.JunctionInfo, opts Options) (*Controller, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.MinGreenSteps < 1 {
		return nil, fmt.Errorf("gapout: MinGreenSteps must be positive, got %d", opts.MinGreenSteps)
	}
	if opts.MaxGreenSteps < opts.MinGreenSteps {
		return nil, fmt.Errorf("gapout: MaxGreenSteps %d below MinGreenSteps %d", opts.MaxGreenSteps, opts.MinGreenSteps)
	}
	if opts.GapSteps < 1 {
		return nil, fmt.Errorf("gapout: GapSteps must be positive, got %d", opts.GapSteps)
	}
	if opts.AmberSteps < 0 {
		return nil, fmt.Errorf("gapout: AmberSteps must be non-negative, got %d", opts.AmberSteps)
	}
	return &Controller{info: info, opts: opts, active: signal.Amber, pending: 1}, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return "GAPOUT" }

// demand reports whether any link of the phase has a vehicle queued or
// approaching in the observation — the detector actuation of the
// physical controller. Under an estimating sensor this reads the
// observed counts, so detection quality degrades with the sensor.
func (c *Controller) demand(obs *signal.Obs, p signal.Phase) bool {
	for _, li := range c.info.Phases[p-1] {
		l := &obs.Links[li]
		if in := &obs.Rows[l.In]; in.Queued[l.Turn] > 0 || in.Transit[l.Turn] > 0 {
			return true
		}
	}
	return false
}

// startGreen begins serving the pending phase at the given step.
func (c *Controller) startGreen(step int) signal.Phase {
	c.active = c.pending
	c.pending = c.pending%signal.Phase(c.info.NumPhases()) + 1
	c.greenStart = step
	c.lastDemand = step // detection clock resets on green start
	return c.active
}

// Decide implements signal.Controller.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	step := obs.Step
	if c.active == signal.Amber {
		if step < c.amberUntil {
			return signal.Amber
		}
		return c.startGreen(step)
	}
	if c.demand(obs, c.active) {
		c.lastDemand = step
	}
	elapsed := step - c.greenStart
	if elapsed < c.opts.MinGreenSteps {
		return c.active
	}
	if elapsed >= c.opts.MaxGreenSteps || step-c.lastDemand >= c.opts.GapSteps {
		// Max-green preemption or gap-out: transition to the next phase.
		c.active = signal.Amber
		if c.opts.AmberSteps == 0 {
			return c.startGreen(step)
		}
		c.amberUntil = step + c.opts.AmberSteps
		return signal.Amber
	}
	return c.active
}

// Factory returns a signal.Factory building actuated gap-out
// controllers.
//
// The factory is deliberately NOT a signal.BatchFactory: the controller
// evaluates no per-link derived quantity every round — its per-step
// work is three integer timer comparisons plus a short demand scan of
// the active phase — so there is no flat sweep for a batched
// implementation to amortize (the same reasoning that keeps
// bp's fixed-slot factory per-junction). Auto control mode keeps the
// cheap per-junction loop; forcing signal.ControlBatched still works
// through the engine-built signal.Batched adapter.
func Factory(opts Options) signal.Factory {
	return factory{opts: opts}
}

// factory is the gap-out factory. Its controllers' timers are state,
// but their bounds are not, so the fingerprint (Params) is where a
// snapshot records them.
type factory struct {
	opts Options
}

// Name implements signal.Factory.
func (f factory) Name() string { return "GAPOUT" }

// New implements signal.Factory.
func (f factory) New(info signal.JunctionInfo) (signal.Controller, error) {
	return New(info, f.opts)
}

// Params implements signal.Parameterized.
func (f factory) Params() string { return fmt.Sprintf("%+v", f.opts.withDefaults()) }
