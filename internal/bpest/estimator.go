// Package bpest implements back-pressure signal control under unknown
// routing rates (PAPERS.md 1401.3357): the frozen vehicle.RouteTable the
// simulator routes with is invisible to the controller — instead each
// link carries an online turn-ratio estimator fed by the engine-owned
// "departures per movement" column of its outgoing row (signal.Row.Joins),
// and the link gain weighs the outgoing road's per-movement queues by
// the estimated rates. The phase logic is UTIL-BP's own Algorithm 1
// tail (core.Controller.DecideWeighted: amber hold, keep-phase
// threshold, best-phase selection), so the family composes with the
// same conformance and equivalence harness as UTIL-BP (DESIGN.md §13).
package bpest

import (
	"fmt"
	"math"

	"utilbp/internal/signal"
)

// TurnRatioEstimator tracks the routing rates of one outgoing road: the
// probability that a vehicle entering the road heads for each turning
// movement. It is a per-event exponential-forgetting average over the
// observed join counts, seeded with the uniform prior. Observe is a
// no-op when the cumulative counts did not advance, which is the
// property that makes change-set caching of estimated gains exact: a
// link observation outside the batch change set is bit-for-bit
// unchanged, so its estimator state and gain are too.
type TurnRatioEstimator struct {
	// ratios is the current estimate r̂; it stays a convex combination
	// of movement indicators, so the components sum to 1 up to float
	// rounding.
	ratios [signal.NumTurns]float64
	// lastJoins is the cumulative join count the last Observe consumed.
	lastJoins [signal.NumTurns]int
	// alpha is the per-event forgetting rate in (0, 1).
	alpha float64
}

// NewTurnRatioEstimator returns an estimator at the uniform prior with
// the given per-event forgetting rate.
func NewTurnRatioEstimator(alpha float64) TurnRatioEstimator {
	e := TurnRatioEstimator{alpha: alpha}
	for t := range e.ratios {
		e.ratios[t] = 1.0 / signal.NumTurns
	}
	return e
}

// Observe folds the cumulative per-movement join counters of the
// outgoing road into the estimate. With n new events of which d_t chose
// movement t, the update is the order-independent batch form of n
// per-event exponential updates:
//
//	r̂ ← (1−α)ⁿ·r̂ + (1−(1−α)ⁿ)·d/n
//
// It weighs the n events alike, so the estimate depends on the calls
// the events are split into: one call over two rounds' events differs
// from a call per round, beyond rounding, and a controller must call it
// every round its joins change (DESIGN.md §11). n = 0 changes nothing.
func (e *TurnRatioEstimator) Observe(joins [signal.NumTurns]int32) {
	n := 0
	var d [signal.NumTurns]int
	for t, j := range joins {
		d[t] = int(j) - e.lastJoins[t]
		e.lastJoins[t] = int(j)
		if d[t] < 0 {
			// Counters only rewind on engine reset, which rebuilds
			// controllers; tolerate a rewind defensively as "no events".
			d[t] = 0
		}
		n += d[t]
	}
	if n == 0 {
		return
	}
	keep := math.Pow(1-e.alpha, float64(n))
	w := (1 - keep) / float64(n)
	for t := range e.ratios {
		e.ratios[t] = float64(keep*e.ratios[t]) + float64(w*float64(d[t]))
	}
}

// Ratios returns the current estimate r̂.
func (e *TurnRatioEstimator) Ratios() [signal.NumTurns]float64 { return e.ratios }

// validAlpha rejects a non-usable forgetting rate (the comparison is
// written inverted so NaN is rejected, the FuzzParseSpec lesson).
func validAlpha(alpha float64) error {
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("bpest: estimator forgetting rate must be in (0, 1), got %v", alpha)
	}
	return nil
}
