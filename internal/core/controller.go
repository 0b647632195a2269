package core

import (
	"fmt"
	"math"

	"utilbp/internal/signal"
)

// Options configures the UTIL-BP controller.
type Options struct {
	// Alpha and Beta are the special-scenario gains of eq. (8)/(9);
	// zero values default to the paper's alpha=-1, beta=-2.
	Alpha, Beta float64
	// AmberSteps is Δk, the transition-phase duration in mini-slots.
	// Zero defaults to 4 (the paper's 4 s amber at Δt = 1 s).
	AmberSteps int
	// Variant applies the ablation switches to the link gain.
	Variant GainVariant
	// NoKeepPhase disables Algorithm 1's Case 2 (the mechanism limiting
	// phase changes), forcing a re-selection every mini-slot — ablation
	// A2.
	NoKeepPhase bool
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = -1
	}
	if o.Beta == 0 {
		o.Beta = -2
	}
	if o.AmberSteps == 0 {
		o.AmberSteps = 4
	}
	return o
}

// Controller is the utilization-aware adaptive back-pressure controller
// of Algorithm 1. It is invoked at every mini-slot, which is what enables
// varying-length control phases: a phase lasts exactly as long as its
// best link keeps clearing vehicles faster than the threshold g*(k).
type Controller struct {
	// phases is the junction's phase table and wStar its W*, the
	// factor of the keep-phase threshold g* of eq. (12).
	phases [][]int
	wStar  int
	// rule is eq. (8) compiled from the options.
	rule        Rule
	amberSteps  int
	noKeepPhase bool
	// gains is Decide's per-link scratch, allocated by the first
	// Decide: the batched path hands DecideWeighted a window of its
	// shared scratch instead, so a batch-built controller holds none.
	gains []float64
	// scores is selectPhase's per-phase scratch space, kept on the
	// controller so re-selection allocates nothing.
	scores []phaseScore
	// amberUntil is t_Δk expressed as a step index: the transition
	// phase runs while obs.Step < amberUntil.
	amberUntil int
}

// phaseScore carries one phase's eq. (10)/(11) gains during selection.
type phaseScore struct {
	gmax, total float64
}

// New builds a UTIL-BP controller for a junction.
func New(info signal.JunctionInfo, opts Options) (*Controller, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.AmberSteps < 0 {
		return nil, fmt.Errorf("core: AmberSteps must be non-negative, got %d", opts.AmberSteps)
	}
	params := Params{Alpha: opts.Alpha, Beta: opts.Beta, WStar: info.WStar}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		phases:      info.Phases,
		wStar:       info.WStar,
		rule:        compile(params, opts.Variant),
		amberSteps:  opts.AmberSteps,
		noKeepPhase: opts.NoKeepPhase,
		scores:      make([]phaseScore, len(info.Phases)),
	}, nil
}

// Name implements signal.Controller.
func (c *Controller) Name() string { return "UTIL-BP" }

// Decide implements signal.Controller with Algorithm 1, run on a stale
// window of its own scratch: it weighs only the gains its case reads.
func (c *Controller) Decide(obs *signal.Obs) signal.Phase {
	if c.gains == nil {
		c.gains = make([]float64, len(obs.Links))
	}
	return c.DecideWeighted(c.gains, true, obs)
}

// Weigh implements signal.Weighted: the eq. (8) gain of every link from
// its two rows, with the rule's kernel inlined, so the sweep makes no
// call per link.
func (c *Controller) Weigh(links []signal.Link, rows []signal.Row, gains []float64) {
	r := &c.rule
	for i := range links {
		l := &links[i]
		out := &rows[l.Out]
		lane, p := r.counts(&rows[l.In], l.Turn)
		gains[i] = r.Gain(out, l.Mu, lane, p, float64(out.Total))
	}
}

// weighMax is gmax(c_j, k) of eq. (11) and its link, as PhaseGains
// returns them, for the links of phase weighed from their rows: the
// keep test of a stale window, with the rule's kernel inlined, so it
// makes no call per link. It writes no gain: only a selection reads
// the window.
func (c *Controller) weighMax(links []signal.Link, rows []signal.Row, phase []int) (float64, int) {
	r := &c.rule
	best, bestLink := 0.0, -1
	for _, li := range phase {
		l := &links[li]
		out := &rows[l.Out]
		lane, p := r.counts(&rows[l.In], l.Turn)
		if g := r.Gain(out, l.Mu, lane, p, float64(out.Total)); bestLink == -1 || g > best {
			best, bestLink = g, li
		}
	}
	return best, bestLink
}

// Rule is the controller's compiled eq. (8). BP-EST evaluates its
// estimated gain with its tail's rule.
func (c *Controller) Rule() *Rule { return &c.rule }

// DecideWeighted implements signal.Weighted: Algorithm 1 over link
// gains. It is the one decision tail of the per-junction Decide, of the
// batched controller and of BP-EST, which hands it its estimated gains
// already weighed. On a stale window it weighs only what its case
// reads: nothing under amber (Case 1), the current phase's links for
// the keep test (Case 2), and every link for a selection (Case 3).
func (c *Controller) DecideWeighted(gains []float64, stale bool, obs *signal.Obs) signal.Phase {
	cur := obs.Current

	// Case 1 (lines 1-2): the transition period Δk has not expired.
	if cur == signal.Amber && obs.Step < c.amberUntil {
		return signal.Amber
	}

	// Case 2 (lines 3-4): keep the current phase while its best link
	// gain exceeds g*(k) = W*·µ(Lmax), eq. (12) — the mechanism that
	// limits the number of transition phases. g* is 0 for an empty
	// phase.
	if cur != signal.Amber && !c.noKeepPhase {
		var gmax float64
		var maxLink int
		if stale {
			gmax, maxLink = c.weighMax(obs.Links, obs.Rows, c.phases[cur-1])
		} else {
			gmax, maxLink, _ = PhaseGains(gains, c.phases[cur-1])
		}
		threshold := 0.0
		if maxLink >= 0 {
			threshold = float64(c.wStar) * obs.Links[maxLink].Mu
		}
		if gmax > threshold {
			return cur
		}
	}

	// Case 3 (lines 5-17): select the best phase.
	if stale {
		c.Weigh(obs.Links, obs.Rows, gains)
	}
	next := c.selectPhase(gains, cur)

	// Lines 12-16: adopt it directly when it is the current phase or a
	// transition just ended; otherwise start a transition of Δk slots.
	if next == cur || cur == signal.Amber {
		return next
	}
	c.amberUntil = obs.Step + c.amberSteps
	if c.amberSteps == 0 {
		return next
	}
	return signal.Amber
}

// selectPhase implements lines 6-11: among phases guaranteeing some
// utilization in the next mini-slot (gmax > alpha), pick the highest
// total gain (best effort against instability); if no phase can
// guarantee utilization, pick the highest single-link gain. Ties prefer
// the current phase (avoiding a pointless transition), then the lowest
// phase number.
func (c *Controller) selectPhase(gains []float64, cur signal.Phase) signal.Phase {
	scores := c.scores
	alpha := math.Float64frombits(c.rule.alpha)
	anyUsable := false
	for pi, phase := range c.phases {
		gmax, _, total := PhaseGains(gains, phase)
		scores[pi] = phaseScore{gmax: gmax, total: total}
		if gmax > alpha {
			anyUsable = true
		}
	}
	best := signal.Amber
	var bestScore float64
	better := func(p signal.Phase, score float64) bool {
		switch {
		case best == signal.Amber:
			return true
		case score > bestScore:
			return true
		case score == bestScore && p == cur && best != cur:
			return true
		default:
			return false
		}
	}
	for pi := range scores {
		p := signal.Phase(pi + 1)
		if anyUsable {
			// Lines 6-8: C' = {c_j : gmax > alpha}; argmax total gain.
			if scores[pi].gmax <= alpha {
				continue
			}
			if better(p, scores[pi].total) {
				best, bestScore = p, scores[pi].total
			}
		} else {
			// Lines 9-10: argmax single-link gain.
			if better(p, scores[pi].gmax) {
				best, bestScore = p, scores[pi].gmax
			}
		}
	}
	return best
}

// Factory returns a signal.Factory building UTIL-BP controllers with the
// given options. The returned factory also implements
// signal.BatchFactory, so engines in auto or batched control mode run
// UTIL-BP through the shared weighted batch (signal.NewWeightedBatch) —
// bit-for-bit equal to the per-junction path.
func Factory(opts Options) signal.Factory {
	return factory{opts: opts}
}

// factory is the UTIL-BP factory, implementing both signal.Factory and
// signal.BatchFactory.
type factory struct {
	opts Options
}

// Name implements signal.Factory.
func (f factory) Name() string { return "UTIL-BP" }

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
