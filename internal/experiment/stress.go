package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/scenario"
)

// DefaultStressAreas returns the canonical area-incident severity axis
// in junction-neighborhood sizes k (a k×k block of junctions loses
// every approach): 0 is the undisrupted reference, 1 a single starved
// junction, 3 a whole district. On the paper's 3×3 grid k = 3 closes
// the entire network mid-run — the graceful-degradation endpoint.
func DefaultStressAreas() []int { return []int{0, 1, 3} }

// DefaultStressDemandScales returns the demand axis of the stress
// study: the paper's operating point and a 1.3× overload, so each
// degradation curve is read both below and above saturation.
func DefaultStressDemandScales() []float64 { return []float64{1, 1.3} }

// DefaultStressCapFrac is the residual capacity of every road inside a
// stressed area — near-closure, because the paper's W = 120 storage
// bound leaves so much headroom that milder clamps never bind (see
// DefaultCapFracs); the area size k stays the severity axis.
const DefaultStressCapFrac = 0.05

// StressStats aggregates one (controller family × area size × demand
// scale) row of the stress study across seeds: how throughput and
// queuing degrade as an area incident grows and demand climbs past the
// operating point.
type StressStats struct {
	// Family is the controller family of this row.
	Family ControllerFamily
	// AreaK is the incident severity: the k of the k×k junction
	// neighborhood whose approaches are clamped (0 = undisrupted
	// reference).
	AreaK int
	// DemandScale is the arrival-rate multiplier of this row.
	DemandScale float64
	// SeedRow holds the row's per-seed results; DegradationPct is
	// measured against the same family's AreaK = 0 row at the same
	// demand scale, zero when the area axis carries no undisrupted
	// reference.
	SeedRow
}

// StressSweep runs the area-incident stress study: every controller
// family of RobustnessFamilies across the area-size axis (k×k junction
// neighborhoods losing their approaches mid-run) crossed with the
// demand-scale axis and the seeds — the graceful-degradation surface
// of DESIGN.md §14. Cells run on the pooled sweep runner (runSweep);
// (area, scale) pairs have distinct artifacts, so the workers share one
// concurrency-safe ArtifactCache per pair and each worker keeps one
// EngineCache per pair on top. Results are bit-for-bit identical to the
// serial fresh-engine reference for the same inputs
// (TestStressSweepPooledMatchesSerial). A negative area size or a
// demand scale that is not positive is an error, reported before any
// cell runs.
func StressSweep(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) ([]StressStats, error) {
	return stressSweep(base, pattern, areas, scales, seeds, durationSec, true)
}

// stressSweep runs StressSweep pooled, or serial on fresh engines
// (runSweep) as the reference the pooled-vs-serial pins compare against.
func stressSweep(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64, pooled bool) ([]StressStats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	if len(areas) == 0 {
		areas = DefaultStressAreas()
	}
	if len(scales) == 0 {
		scales = DefaultStressDemandScales()
	}
	if durationSec <= 0 {
		durationSec = pattern.Duration()
	}
	// Each (area, scale) pair is the base setup plus a k×k area incident
	// anchored at the loaded top-right corner
	// (scenario.WithCornerAreaIncident) spanning the middle half of the
	// sweep horizon at DefaultStressCapFrac residual capacity, with the
	// scaled demand; area 0 keeps the base events untouched, so the
	// degradation baseline is the undisrupted run at the same demand.
	setups := make([]scenario.Setup, 0, len(areas)*len(scales))
	intact := -1
	for ai, k := range areas {
		if k < 0 {
			return nil, fmt.Errorf("experiment: stress area size %d is negative", k)
		}
		if k == 0 && intact < 0 {
			intact = ai
		}
		for _, scale := range scales {
			if !(scale > 0) {
				return nil, fmt.Errorf("experiment: stress demand scale %v is not positive", scale)
			}
			setup := base
			if k > 0 {
				var err error
				if setup, err = base.WithCornerAreaIncident(k, durationSec/4, durationSec/2, DefaultStressCapFrac); err != nil {
					return nil, err
				}
			}
			setup.DemandScale = scale
			setups = append(setups, setup)
		}
	}
	results, err := runSweep(pooled, setups, familyCells(setups, pattern, seeds, durationSec))
	if err != nil {
		return nil, err
	}
	// A row's reference is the same family's intact row at its scale.
	rows := seedRows(results, seeds, func(row int) int {
		if intact < 0 {
			return -1
		}
		return row - row%len(setups) + intact*len(scales) + row%len(scales)
	})
	out := make([]StressStats, len(rows))
	families := RobustnessFamilies()
	for r, row := range rows {
		s := r % len(setups)
		out[r] = StressStats{
			Family:      families[r/len(setups)],
			AreaK:       areas[s/len(scales)],
			DemandScale: scales[s%len(scales)],
			SeedRow:     row,
		}
	}
	return out, nil
}

// FormatStressStats renders the stress-study table.
func FormatStressStats(rows []StressStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput and queuing under area incidents, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-10s %-8s %-8s %-20s %-12s %s\n", "Family", "area", "demand", "wait mean ± std (s)", "throughput", "vs intact")
	for _, r := range rows {
		area := "none"
		if r.AreaK > 0 {
			area = fmt.Sprintf("%dx%d", r.AreaK, r.AreaK)
		}
		fmt.Fprintf(&b, "%-10s %-8s %-8s %-20s %-12.0f %+.1f%%\n",
			r.Family,
			area,
			fmt.Sprintf("%.2fx", r.DemandScale),
			fmt.Sprintf("%.1f ± %.1f", r.Mean, r.Std),
			r.MeanThroughput,
			r.DegradationPct)
	}
	return b.String()
}
