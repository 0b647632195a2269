// Package maxpressure implements the MaxPressure traffic-signal
// controller (Varaiya 2013, SNIPPETS.md #3): each mini-slot the phase
// with the largest total link pressure is actuated, where a link's
// pressure weighs its own queue against the queues of the downstream
// movements its vehicles will join. Unlike the back-pressure variants of
// internal/core and internal/bp, the downstream term is per-movement —
// it reads the per-movement Queued columns of the outgoing road's row
// instead of its aggregate Total — with uniform routing weights (the
// unknown-routing-rate refinement lives in internal/bpest). A minimum
// green hold and amber insertion between distinct greens make the
// controller actuation-safe under the signal/signaltest conformance
// contract.
package maxpressure

import (
	"fmt"

	"utilbp/internal/signal"
)

// Options configures the MaxPressure controller.
type Options struct {
	// MinGreenSteps is the guaranteed green hold in mini-slots: once a
	// phase turns green it is kept at least this long before pressure
	// re-selection may switch away. Zero defaults to 10.
	MinGreenSteps int
	// AmberSteps is the transition-phase duration in mini-slots inserted
	// between two distinct greens. Zero defaults to 4 (the paper's 4 s
	// amber at Δt = 1 s).
	AmberSteps int
	// CountApproaching includes vehicles rolling toward the stop line in
	// the upstream pressure term, the queuing-network reading of the
	// link queue shared with core.GainVariant.CountApproaching.
	CountApproaching bool
}

func (o Options) withDefaults() Options {
	if o.MinGreenSteps == 0 {
		o.MinGreenSteps = 10
	}
	if o.AmberSteps == 0 {
		o.AmberSteps = 4
	}
	return o
}

// Weight is the MaxPressure link weight: (upstream queue − mean
// downstream movement queue) · µ. The downstream term averages the
// outgoing road's per-movement queues with uniform routing weights
// 1/NumTurns — the Varaiya pressure with unknown turn ratios replaced
// by their uninformative prior. It is a pure function of the link's
// two rows, so a selection weighs it from the rows it reads.
func Weight(l *signal.Link, rows []signal.Row, countApproaching bool) float64 {
	in, out := &rows[l.In], &rows[l.Out]
	q := int(in.Queued[l.Turn])
	if countApproaching {
		q += int(in.Transit[l.Turn])
	}
	down := 0
	for t := 0; t < signal.NumTurns; t++ {
		down += int(out.Queued[t])
	}
	return (float64(q) - float64(down)/signal.NumTurns) * l.Mu
}

// Controller is the per-junction MaxPressure controller. Its phase
// timers key on the observed applied phase (obs.Current), so dark-mode
// overrides and both dispatch modes advance it identically.
type Controller struct {
	info signal.JunctionInfo
	opts Options
	// weights is Decide's per-link scratch, allocated by the first
	// Decide: the batched path hands DecideWeighted a window of its
	// shared scratch instead, so a batch-built controller holds none.
	weights []float64
	// prevCur tracks the last observed applied phase; greenStart the
	// step the current green segment was first observed at.
	prevCur    signal.Phase
	greenStart int
	// amberUntil is the step index the self-commanded transition runs
	// to, mirroring core.Controller's amber timer.
	amberUntil int
}

// New builds a MaxPressure controller for a junction.
func New(info signal.JunctionInfo, opts Options) (*Controller, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.MinGreenSteps < 0 {
		return nil, fmt.Errorf("maxpressure: MinGreenSteps must be non-negative, got %d", opts.MinGreenSteps)
	}
	if opts.AmberSteps < 0 {
		return nil, fmt.Errorf("maxpressure: AmberSteps must be non-negative, got %d", opts.AmberSteps)
	}
	return &Controller{info: info, opts: opts}, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return "MAXPRESSURE" }

// Decide implements signal.Controller: DecideWeighted on a stale window
// of its own scratch, which weighs only when it selects.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	if c.weights == nil {
		c.weights = make([]float64, len(obs.Links))
	}
	return c.DecideWeighted(c.weights, true, obs)
}

// Weigh implements signal.Weighted: the Weight of every link.
func (c *Controller) Weigh(links []signal.Link, rows []signal.Row, weights []float64) {
	for i := range links {
		weights[i] = Weight(&links[i], rows, c.opts.CountApproaching)
	}
}

// KeepsQuiet implements signal.QuietRule: a quiet junction keeps
// Current on every step but the one that ends its minimum green. Before it the
// hold returns Current, and after it last round's selection over the
// same weights already returned Current.
func (c *Controller) KeepsQuiet(step int) bool {
	return step-c.greenStart != c.opts.MinGreenSteps
}

// DecideWeighted implements signal.Weighted: the phase logic over link
// weights, the one decision tail of the per-junction Decide and the
// batched controller. Amber and the minimum green hold read no weight,
// so a stale window is weighed, whole, only when the rule selects.
func (c *Controller) DecideWeighted(weights []float64, stale bool, obs *signal.Obs) signal.Phase {
	cur := obs.Current
	if cur != c.prevCur {
		if cur != signal.Amber {
			// A green segment began on the applied signal (our own
			// switch, or a dark-mode policy's): restart the hold timer.
			c.greenStart = obs.Step
		}
		c.prevCur = cur
	}
	// Self-commanded transition in progress.
	if cur == signal.Amber && obs.Step < c.amberUntil {
		return signal.Amber
	}
	// Minimum green hold.
	if cur != signal.Amber && obs.Step-c.greenStart < c.opts.MinGreenSteps {
		return cur
	}
	if stale {
		c.Weigh(obs.Links, obs.Rows, weights)
	}
	next := c.selectPhase(weights, cur)
	if next == cur || cur == signal.Amber {
		return next
	}
	c.amberUntil = obs.Step + c.opts.AmberSteps
	if c.opts.AmberSteps == 0 {
		return next
	}
	return signal.Amber
}

// selectPhase returns the phase with the maximum total pressure. Ties
// prefer the current phase (avoiding a pointless transition), then the
// lowest phase number.
func (c *Controller) selectPhase(weights []float64, cur signal.Phase) signal.Phase {
	best := signal.Amber
	bestScore := 0.0
	for pi, phase := range c.info.Phases {
		total := 0.0
		for _, li := range phase {
			total += weights[li]
		}
		p := signal.Phase(pi + 1)
		switch {
		case best == signal.Amber:
			best, bestScore = p, total
		case total > bestScore:
			best, bestScore = p, total
		case total == bestScore && p == cur && best != cur:
			best, bestScore = p, total
		}
	}
	return best
}

// Factory returns a signal.Factory building MaxPressure controllers
// with the given options. The returned factory also implements
// signal.BatchFactory — the link weight is a pure per-link function
// like UTIL-BP's gain, so engines in auto or batched control mode run
// MaxPressure through the shared weighted batch
// (signal.NewWeightedBatch), bit-for-bit equal to the per-junction
// path.
func Factory(opts Options) signal.Factory {
	return factory{opts: opts}
}

// factory is the MaxPressure factory, implementing both signal.Factory
// and signal.BatchFactory.
type factory struct {
	opts Options
}

// Name implements signal.Factory.
func (f factory) Name() string { return "MAXPRESSURE" }

// Params implements signal.Parameterized.
func (f factory) Params() string { return fmt.Sprintf("%+v", f.opts.withDefaults()) }

// New implements signal.Factory.
func (f factory) New(info signal.JunctionInfo) (signal.Controller, error) {
	return New(info, f.opts)
}

// NewBatch implements signal.BatchFactory.
func (f factory) NewBatch(infos []signal.JunctionInfo) (signal.BatchController, error) {
	return signal.NewWeightedBatch(f, infos)
}
