// Package fixedtime implements a pretimed round-robin signal controller:
// phases rotate in a fixed cycle with fixed green and amber durations,
// independent of traffic. It is the non-adaptive reference point below
// every back-pressure variant.
package fixedtime

import (
	"fmt"

	"utilbp/internal/signal"
)

// Options parameterizes the pretimed cycle.
type Options struct {
	// GreenSteps is the mini-slots of green per phase (required > 0).
	GreenSteps int
	// AmberSteps is the mini-slots of amber between phases.
	AmberSteps int
	// Offset shifts the cycle start, staggering junctions.
	Offset int
}

// Controller is a pretimed round-robin controller. Its decision is a pure
// function of the step index, so it needs no internal state.
type Controller struct {
	opts      Options
	numPhases int
}

// New returns a pretimed controller for the junction.
func New(info signal.JunctionInfo, opts Options) (*Controller, error) {
	if opts.GreenSteps <= 0 {
		return nil, fmt.Errorf("fixedtime: GreenSteps must be positive, got %d", opts.GreenSteps)
	}
	if opts.AmberSteps < 0 {
		return nil, fmt.Errorf("fixedtime: AmberSteps must be non-negative, got %d", opts.AmberSteps)
	}
	if err := info.Validate(); err != nil {
		return nil, err
	}
	return &Controller{opts: opts, numPhases: info.NumPhases()}, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return "FIXED" }

// Decide implements signal.Controller: phase p runs for GreenSteps, then
// AmberSteps of transition, cycling p = 1..numPhases.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	seg := c.opts.GreenSteps + c.opts.AmberSteps
	cycle := seg * c.numPhases
	pos := (obs.Step + c.opts.Offset) % cycle
	if pos < 0 {
		pos += cycle
	}
	phase := pos / seg
	if pos%seg < c.opts.GreenSteps {
		return signal.Phase(phase + 1)
	}
	return signal.Amber
}

// Factory returns a signal.Factory building pretimed controllers.
func Factory(opts Options) signal.Factory {
	return factory{opts: opts}
}

// factory is the pretimed factory. Its controllers keep no state, so
// the fingerprint (Params) is the only place a snapshot records the
// cycle they follow.
type factory struct {
	opts Options
}

// Name implements signal.Factory.
func (f factory) Name() string { return "FIXED" }

// New implements signal.Factory.
func (f factory) New(info signal.JunctionInfo) (signal.Controller, error) {
	return New(info, f.opts)
}

// Params implements signal.Parameterized.
func (f factory) Params() string { return fmt.Sprintf("%+v", f.opts) }
