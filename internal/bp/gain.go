// Package bp implements the back-pressure baselines the paper compares
// against: the original fixed-slot back-pressure policy of Varaiya [3]
// (eq. 5 of the paper) and the capacity-aware fixed-slot policy CAP-BP of
// Gregoire et al. [4], both driving a common fixed-length-slot phase
// scheduler.
package bp

import "utilbp/internal/signal"

// GainFunc scores one link, read from its two rows, for phase selection
// at a slot boundary.
type GainFunc func(l *signal.Link, rows []signal.Row) float64

// OriginalGain is eq. (5): g_o = max(0, (b_i - b_{i'}) µ), using the
// whole-road incoming pressure b_i and clamping negative pressure
// differences to zero (no service toward more-congested roads).
func OriginalGain(l *signal.Link, rows []signal.Row) float64 {
	g := (float64(rows[l.In].Total) - float64(rows[l.Out].Total)) * l.Mu
	if g < 0 {
		return 0
	}
	return g
}

// CapacityAwareGain is the CAP-BP link weight as the paper characterizes
// [4]: zero when the outgoing road is full ("the gain can be zero [4]"),
// otherwise the non-negative pressure difference. It uses the per-lane
// incoming queue, the stronger variant, so the headline comparison
// against UTIL-BP is conservative (see DESIGN.md §2).
func CapacityAwareGain(l *signal.Link, rows []signal.Row) float64 {
	out := &rows[l.Out]
	if out.Full() {
		return 0
	}
	g := (float64(rows[l.In].Queued[l.Turn]) - float64(out.Total)) * l.Mu
	if g < 0 {
		return 0
	}
	return g
}

// CapacityAwareGainApproaching is CapacityAwareGain with approaching
// vehicles included in the incoming pressure — the same detector
// convention as UTIL-BP's CountApproaching variant, keeping comparisons
// apples-to-apples.
func CapacityAwareGainApproaching(l *signal.Link, rows []signal.Row) float64 {
	in, out := &rows[l.In], &rows[l.Out]
	if out.Full() {
		return 0
	}
	g := (float64(int(in.Queued[l.Turn])+int(in.Transit[l.Turn])) - float64(out.Total)) * l.Mu
	if g < 0 {
		return 0
	}
	return g
}

// NormalizedCapacityAwareGain is the capacity-normalized variant closer
// to [4]'s formulation: pressures are queue fractions of road capacity,
// so a nearly full downstream road repels service even before saturating.
// Unbounded roads contribute zero pressure.
func NormalizedCapacityAwareGain(l *signal.Link, rows []signal.Row) float64 {
	inRow, outRow := &rows[l.In], &rows[l.Out]
	if outRow.Full() {
		return 0
	}
	queue := inRow.Queued[l.Turn]
	in := 0.0
	if inRow.Cap > 0 {
		in = float64(queue) / float64(inRow.Cap)
	} else if queue > 0 {
		in = 1
	}
	out := 0.0
	if outRow.Cap > 0 {
		out = float64(outRow.Total) / float64(outRow.Cap)
	}
	g := (in - out) * l.Mu
	if g < 0 {
		return 0
	}
	return g
}

// phaseTotal sums a phase's link gains.
func phaseTotal(gains []float64, phase []int) float64 {
	total := 0.0
	for _, li := range phase {
		total += gains[li]
	}
	return total
}
