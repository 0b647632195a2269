// Package core implements the paper's primary contribution: the
// utilization-aware adaptive back-pressure traffic-signal controller
// (UTIL-BP), i.e. the modified link gain of eq. (6)–(8), the phase gains
// of eq. (10)–(11), the keep-phase threshold g* of eq. (12), and
// Algorithm 1, which together enable varying-length control phases that
// trade off stability against junction utilization.
package core

import (
	"fmt"

	"utilbp/internal/signal"
)

// Params are the gain parameters of eq. (7)–(9).
type Params struct {
	// Alpha is the gain assigned to a link whose dedicated incoming
	// lane is empty (second special scenario of eq. 8); Beta to a link
	// whose outgoing road is at capacity (first scenario). The paper
	// requires beta < alpha < 0 (eq. 9), though it notes the ordering
	// may be reversed by a traffic authority; Validate enforces only
	// that both are negative.
	Alpha, Beta float64
	// WStar is W* = max_i' W_i' (eq. 7), the shift that keeps the
	// pressure term of a serviceable link positive.
	WStar int
}

// Validate checks eq. (9)'s sign requirements. The comparison is
// written inverted so a NaN alpha or beta is rejected too.
func (p Params) Validate() error {
	if !(p.Alpha < 0 && p.Beta < 0) {
		return fmt.Errorf("core: alpha (%v) and beta (%v) must be negative", p.Alpha, p.Beta)
	}
	if p.WStar < 0 {
		return fmt.Errorf("core: WStar must be non-negative, got %d", p.WStar)
	}
	return nil
}

// GainVariant selects the pressure formulation, for the headline
// algorithm and for the ablations in DESIGN.md.
type GainVariant struct {
	// WholeRoadPressure replaces the per-lane incoming pressure
	// b_i^{i'} with the whole-road pressure b_i of the original eq. (5)
	// — ablation A4, reverting the paper's first modification.
	WholeRoadPressure bool
	// NoWStarShift removes the +W* shift and clamps the gain at zero,
	// disallowing service under negative pressure difference — ablation
	// A1, reverting the paper's second modification.
	NoWStarShift bool
	// NoSpecialCases disables the alpha/beta scenarios of eq. (8) so
	// empty-incoming and full-outgoing links are scored by the plain
	// formula — ablation A3.
	NoSpecialCases bool
	// CountApproaching includes vehicles rolling toward the stop line
	// in the per-lane pressure (the queuing-network reading of
	// q_i^{i'}: every vehicle on road i bound for i' is in its queue).
	// The empty-lane special case then triggers only when no vehicle is
	// queued or approaching.
	CountApproaching bool
}

// LinkGain computes g(L_i^{i'}, k) per eq. (8):
//
//	beta                              if the outgoing road is full,
//	alpha                             if the incoming lane is empty,
//	(b_i^{i'} - b_{i'} + W*) · µ      otherwise,
//
// with the variant switches applied for ablation studies.
func LinkGain(l *signal.LinkObs, p Params, v GainVariant) float64 {
	laneQueue := int(l.Queue)
	if v.CountApproaching {
		laneQueue += int(l.InTransit)
	}
	if !v.NoSpecialCases {
		if l.OutFull() {
			return p.Beta
		}
		if laneQueue == 0 {
			return p.Alpha
		}
	}
	in := float64(laneQueue)
	if v.WholeRoadPressure {
		in = float64(l.ApproachQueue)
	}
	pressure := in - float64(l.OutQueue)
	if v.NoWStarShift {
		g := pressure * l.Mu
		if g < 0 {
			return 0
		}
		return g
	}
	return (pressure + float64(p.WStar)) * l.Mu
}

// PhaseGain is g(c_j, k) of eq. (10): the sum of the constituent link
// gains. gains is indexed by link, phase lists link indexes.
func PhaseGain(gains []float64, phase []int) float64 {
	total := 0.0
	for _, li := range phase {
		total += gains[li]
	}
	return total
}

// PhaseMaxGain is gmax(c_j, k) of eq. (11): the maximum constituent link
// gain, and the index of the maximizing link (-1 for an empty phase).
func PhaseMaxGain(gains []float64, phase []int) (float64, int) {
	best, bestLink := 0.0, -1
	for _, li := range phase {
		if bestLink == -1 || gains[li] > best {
			best, bestLink = gains[li], li
		}
	}
	return best, bestLink
}
