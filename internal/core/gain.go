// Package core implements the paper's primary contribution: the
// utilization-aware adaptive back-pressure traffic-signal controller
// (UTIL-BP), i.e. the modified link gain of eq. (6)–(8), the phase gains
// of eq. (10)–(11), the keep-phase threshold g* of eq. (12), and
// Algorithm 1, which together enable varying-length control phases that
// trade off stability against junction utilization.
package core

import (
	"fmt"
	"math"

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

// Rule is eq. (8) compiled for one controller: the Params and every
// GainVariant switch folded into constants, so that one link's gain is
// straight-line code with no branch on the observation (DESIGN.md §11).
// UTIL-BP's Weigh and WeighLink and BP-EST's estimated gain evaluate it
// through Gain.
type Rule struct {
	// alpha and beta are the special-scenario gains as math.Float64bits:
	// the compiler selects an integer with a conditional move, a
	// float64 with a branch.
	alpha, beta uint64
	// shift is W* (0 under A1), and floor is the gain's lower clamp:
	// -Inf, which never binds, or 0 under A1.
	shift, floor float64
	// emptyAt is the lane count that gives alpha: 0, or -1 under A3.
	// The outgoing road is full, giving beta, when its capacity exceeds
	// fullAbove and its occupancy reaches that capacity: fullAbove is 0,
	// or MaxInt32 under A3. Every count lies in [0, MaxInt32], so the A3
	// gates never fire.
	emptyAt, fullAbove int32
	// transit masks the approaching vehicles (Row.Transit) into the
	// lane count: -1 under CountApproaching, else 0. whole selects the
	// whole-road pressure q_i (A4).
	transit int32
	whole   bool
}

// compile folds p and v into the Rule of eq. (8).
func compile(p Params, v GainVariant) Rule {
	r := Rule{
		alpha: math.Float64bits(p.Alpha),
		beta:  math.Float64bits(p.Beta),
		shift: float64(p.WStar),
		floor: math.Inf(-1),
		whole: v.WholeRoadPressure,
	}
	if v.NoWStarShift {
		r.shift, r.floor = 0, 0
	}
	if v.NoSpecialCases {
		r.emptyAt, r.fullAbove = -1, math.MaxInt32
	}
	if v.CountApproaching {
		r.transit = -1
	}
	return r
}

// Gain is g(L_i^{i'}, k) of eq. (8) for a link of service rate mu whose
// outgoing road's row is out:
//
//	beta                    if the outgoing road is full,
//	alpha                   if the incoming lane is empty,
//	(in - down + W*) · µ    otherwise,
//
// where lane is the incoming lane's count, in the pressure count
// b_i^{i'} and down the downstream pressure: b_{i'} = out.Total for
// UTIL-BP, the estimated Σ r̂_t·q_{i',t} for BP-EST. It must stay
// within the inliner's budget, so that a sweep over links makes no
// call per link (CI checks that it is inlined); it costs 76 of 80, and
// naming the result saves two of those. The two special cases
// are selects on the gain's bits, which the compiler emits as
// conditional moves when both arms are in registers: α is loaded into a
// local first, because a select whose arm loads a field stays a branch.
// Full is written as two selects, since a && would stay a branch, and
// it comes last so that a full road wins over an empty lane. The clamp
// stays a comparison on floats: max would turn -0 into +0.
func (r *Rule) Gain(out *signal.Row, mu float64, lane, in int, down float64) (g float64) {
	a := r.alpha
	g = (float64(in) - down + r.shift) * mu
	if g < r.floor {
		g = r.floor
	}
	bits := math.Float64bits(g)
	if lane == int(r.emptyAt) {
		bits = a
	}
	f := r.beta
	if out.Occ < out.Cap {
		f = bits
	}
	if out.Cap > r.fullAbove {
		bits = f
	}
	return math.Float64frombits(bits)
}

// counts returns UTIL-BP's lane count for movement t of the incoming
// road's row, q_i^{i'} plus the approaching vehicles under
// CountApproaching (widened, so the sum cannot overflow), and its
// pressure count: the lane count, or q_i under A4.
func (r *Rule) counts(in *signal.Row, t int32) (lane, p int) {
	lane = int(in.Queued[t]) + int(in.Transit[t]&r.transit)
	p = lane
	if r.whole {
		p = int(in.Total)
	}
	return lane, p
}

// PhaseGains walks a phase's links once and returns gmax(c_j, k) of
// eq. (11), the maximum constituent link gain, with the index of the
// maximizing link (-1 for an empty phase), and g(c_j, k) of eq. (10),
// the sum of the constituent link gains in phase order. gains is
// indexed by link, phase lists link indexes.
func PhaseGains(gains []float64, phase []int) (gmax float64, maxLink int, total float64) {
	maxLink = -1
	for _, li := range phase {
		g := gains[li]
		total += g
		if maxLink == -1 || g > gmax {
			gmax, maxLink = g, li
		}
	}
	return gmax, maxLink, total
}
