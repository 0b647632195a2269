package bpest

import (
	"fmt"

	"utilbp/internal/core"
	"utilbp/internal/signal"
)

// Options configures the estimated-routing back-pressure controller.
// The CLI spec syntax is bp-est:alpha (scenario.ParseControllerSpec).
type Options struct {
	// Alpha is the turn-ratio estimator's per-event forgetting rate in
	// (0, 1). Zero defaults to 0.05.
	Alpha float64
	// GainAlpha and GainBeta are the special-scenario gains of eq.
	// (8)/(9) shared with UTIL-BP; zero values default to -1 and -2.
	GainAlpha, GainBeta float64
	// AmberSteps is the transition-phase duration in mini-slots. Zero
	// defaults to 4.
	AmberSteps int
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.GainAlpha == 0 {
		o.GainAlpha = -1
	}
	if o.GainBeta == 0 {
		o.GainBeta = -2
	}
	if o.AmberSteps == 0 {
		o.AmberSteps = 4
	}
	return o
}

// Controller is the per-junction estimated-routing BP controller. It
// owns one TurnRatioEstimator per link — estimator state is controller
// state, so an engine Reset (which rebuilds controllers through the
// factory) starts every estimate back at the uniform prior and replays
// are bit-for-bit (DESIGN.md §13). Its phase rule is UTIL-BP's
// Algorithm 1 tail run on the estimated gains.
type Controller struct {
	est []TurnRatioEstimator
	// gains is Decide's per-link scratch, allocated by the first
	// Decide; a batch-built controller holds none.
	gains []float64
	// tail is the Algorithm 1 phase logic (amber timer, eq. (12)
	// keep-phase, selection) with this family's gains and amber, and
	// its compiled eq. (8) is the gain rule.
	tail *core.Controller
}

// New builds an estimated-routing BP controller for a junction.
func New(info signal.JunctionInfo, opts Options) (*Controller, error) {
	opts = opts.withDefaults()
	if err := validAlpha(opts.Alpha); err != nil {
		return nil, err
	}
	tail, err := core.New(info, core.Options{Alpha: opts.GainAlpha, Beta: opts.GainBeta, AmberSteps: opts.AmberSteps})
	if err != nil {
		return nil, err
	}
	c := &Controller{
		est:  make([]TurnRatioEstimator, info.NumLinks),
		tail: tail,
	}
	for i := range c.est {
		c.est[i] = NewTurnRatioEstimator(opts.Alpha)
	}
	return c, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return "BP-EST" }

// Weigh implements signal.Weighted: for each link it folds the
// departure counters of the outgoing row into the link's estimator and
// writes the estimated-routing gain, UTIL-BP's eq. (8) kernel
// (core.Rule.Gain, inlined) with the routing-rate-weighted downstream
// movement queues Σ_t r̂_t·q_{i',t} as the downstream pressure in place
// of the aggregate b_{i'}.
func (c *Controller) Weigh(links []signal.Link, rows []signal.Row, gains []float64) {
	r := c.tail.Rule()
	for i := range links {
		l, e := &links[i], &c.est[i]
		out := &rows[l.Out]
		e.Observe(out.Joins)
		down := 0.0
		for t := 0; t < signal.NumTurns; t++ {
			down += float64(e.ratios[t] * float64(out.Queued[t]))
		}
		q := int(rows[l.In].Queued[l.Turn])
		gains[i] = r.Gain(out, l.Mu, q, q, down)
	}
}

// DecideWeighted implements signal.Weighted with UTIL-BP's Algorithm 1
// tail. A stale window is weighed whole before the tail reads it,
// whatever its case: each estimator must fold a join change in the
// round it happens, because Observe folds n events into one update,
// which is not bitwise equal to two (DESIGN.md §11). A quiet junction
// changed nothing, so the batch may keep it without a call.
func (c *Controller) DecideWeighted(gains []float64, stale bool, obs *signal.Obs) signal.Phase {
	if stale {
		c.Weigh(obs.Links, obs.Rows, gains)
	}
	return c.tail.DecideWeighted(gains, false, obs)
}

// Decide implements signal.Controller: DecideWeighted on a stale window
// of its own scratch.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	if c.gains == nil {
		c.gains = make([]float64, len(obs.Links))
	}
	return c.DecideWeighted(c.gains, true, obs)
}

// Factory returns a signal.Factory building estimated-routing BP
// controllers with the given options. The returned factory also
// implements signal.BatchFactory through the shared weighted batch
// (signal.NewWeightedBatch), which runs the same phase rule, so batched
// dispatch stays bit-for-bit equal to per-junction.
func Factory(opts Options) signal.Factory {
	return factory{opts: opts}
}

// factory is the BP-EST factory, implementing both signal.Factory and
// signal.BatchFactory.
type factory struct {
	opts Options
}

// Name implements signal.Factory.
func (f factory) Name() string { return "BP-EST" }

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
