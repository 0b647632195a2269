// Package stats aggregates simulation output into the quantities the
// paper reports: average queuing time per vehicle (Table III, Figure 2)
// and phase-timeline statistics (Figures 3-4), plus distributional
// summaries used by the wider test and benchmark suite.
package stats

import (
	"math"
	"sort"

	"utilbp/internal/vehicle"
)

// WaitSummary condenses per-vehicle queueing times for one run.
type WaitSummary struct {
	// Spawned counts all generated vehicles; Exited those that left the
	// network before the horizon.
	Spawned, Exited int
	// MeanWait is the average queuing time over all spawned vehicles,
	// counting the wait accrued so far by vehicles still in the network
	// (call Engine.FinalizeWaits first). This is the paper's "average
	// queuing time of a vehicle in the entire network".
	MeanWait float64
	// MeanWaitExited averages over exited vehicles only.
	MeanWaitExited float64
	// MaxWait is the worst per-vehicle queuing time.
	MaxWait float64
	// P50, P90 and P99 are queueing-time percentiles over all vehicles.
	P50, P90, P99 float64
	// MeanTripTime averages entry-to-exit times of exited vehicles.
	MeanTripTime float64
	// CompletionRate is Exited/Spawned (1 when nothing spawned).
	CompletionRate float64
}

// SummarizeArena computes a WaitSummary directly over the engine's
// structure-of-arrays vehicle arena (DESIGN.md §16), streaming the
// queue-wait and lifecycle columns without materializing []Vehicle
// rows.
func SummarizeArena(a *vehicle.Arena) WaitSummary {
	n := a.Len()
	s := WaitSummary{Spawned: n, CompletionRate: 1}
	if n == 0 {
		return s
	}
	waits := make([]float64, 0, n)
	var total, totalExited, totalTrip float64
	for i := 0; i < n; i++ {
		id := vehicle.ID(i)
		w := a.QueueWait(id)
		waits = append(waits, w)
		total += w
		if w > s.MaxWait {
			s.MaxWait = w
		}
		if a.Done(id) {
			s.Exited++
			totalExited += w
			totalTrip += a.TripTime(id)
		}
	}
	s.MeanWait = total / float64(n)
	if s.Exited > 0 {
		s.MeanWaitExited = totalExited / float64(s.Exited)
		s.MeanTripTime = totalTrip / float64(s.Exited)
	}
	s.CompletionRate = float64(s.Exited) / float64(s.Spawned)
	sort.Float64s(waits)
	s.P50 = percentileSorted(waits, 50)
	s.P90 = percentileSorted(waits, 90)
	s.P99 = percentileSorted(waits, 99)
	return s
}

// percentileSorted returns the p-th percentile (0-100) of an ascending
// slice using linear interpolation; it returns 0 for empty input.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
