package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
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
	// MeanWaits and Throughputs are the per-seed network-mean queuing
	// times and exited-vehicle counts, in the sweep's seed order.
	MeanWaits   []float64
	Throughputs []float64
	// Mean and Std summarize MeanWaits; MeanThroughput summarizes
	// Throughputs.
	Mean, Std      float64
	MeanThroughput float64
	// DegradationPct is the mean per-seed wait increase relative to the
	// same family's AreaK = 0 row at the same demand scale, in percent;
	// zero when the area axis carries no undisrupted reference.
	DegradationPct float64
}

// stressPlan enumerates the independent cells of a stress sweep: one
// run per (family × area × demand scale × seed), identified by a flat
// index so pooled workers write into pre-sized slots and aggregation
// stays in plan order — the scheme of robustnessPlan. Each
// (area, scale) pair is a derived Setup carrying the area incident and
// the scaled demand, so each has its own immutable artifact.
type stressPlan struct {
	pattern     scenario.Pattern
	families    []ControllerFamily
	areas       []int
	scales      []float64
	setups      []scenario.Setup // per (area, scale), area incident armed
	seeds       []uint64
	periodSec   int
	durationSec float64
}

func (p *stressPlan) cells() int {
	return len(p.families) * len(p.areas) * len(p.scales) * len(p.seeds)
}

func (p *stressPlan) cell(idx int) (fi, ai, si, ki int) {
	ki = idx % len(p.seeds)
	row := idx / len(p.seeds)
	si = row % len(p.scales)
	row /= len(p.scales)
	return row / len(p.areas), row % len(p.areas), si, ki
}

// setupAt returns the derived setup of an (area, scale) pair.
func (p *stressPlan) setupAt(ai, si int) scenario.Setup {
	return p.setups[ai*len(p.scales)+si]
}

// labels names a cell for the profiler.
func (p *stressPlan) labels(idx int) cellLabels {
	fi, ai, si, _ := p.cell(idx)
	return cellLabels{p.pattern.String(), string(p.families[fi]), p.setupAt(ai, si).Sensor.String()}
}

// runCell executes one cell. With caches the cell runs on the
// (area, scale) pair's reused engine; with caches == nil it builds a
// fresh scenario and engine per cell — the serial reference the pooled
// scheduler is pinned against.
func (p *stressPlan) runCell(caches []*EngineCache, idx int) (Result, error) {
	fi, ai, si, ki := p.cell(idx)
	family, seed := p.families[fi], p.seeds[ki]
	setup := p.setupAt(ai, si)
	setup.Seed = seed
	var factory signal.Factory
	switch family {
	case FamilyCapBP:
		factory = setup.CapBP(p.periodSec)
	default:
		factory = setup.UtilBP()
	}
	var res Result
	var err error
	if caches != nil {
		res, err = caches[ai*len(p.scales)+si].Run(p.pattern, family, factory, seed, p.durationSec)
	} else {
		res, err = Run(Spec{Setup: setup, Pattern: p.pattern, Factory: factory, DurationSec: p.durationSec})
	}
	if err != nil {
		return Result{}, fmt.Errorf("experiment: %s area %d scale %.2f seed %d: %w",
			family, p.areas[ai], p.scales[si], seed, err)
	}
	return res, nil
}

// aggregate folds the per-cell results into StressStats rows in
// (family, area, scale) order, with degradations computed per seed
// against the family's AreaK = 0 row at the same demand scale.
func (p *stressPlan) aggregate(cells []Result) []StressStats {
	baseline := -1
	for ai, k := range p.areas {
		if k == 0 {
			baseline = ai
			break
		}
	}
	out := make([]StressStats, 0, len(p.families)*len(p.areas)*len(p.scales))
	for fi, family := range p.families {
		for ai, k := range p.areas {
			for si, scale := range p.scales {
				row := StressStats{
					Family:      family,
					AreaK:       k,
					DemandScale: scale,
					MeanWaits:   make([]float64, len(p.seeds)),
					Throughputs: make([]float64, len(p.seeds)),
				}
				deg := 0.0
				for ki := range p.seeds {
					at := func(a int) int {
						return ((fi*len(p.areas)+a)*len(p.scales)+si)*len(p.seeds) + ki
					}
					row.MeanWaits[ki] = cells[at(ai)].Summary.MeanWait
					row.Throughputs[ki] = float64(cells[at(ai)].Totals.Exited)
					if baseline >= 0 {
						if ref := cells[at(baseline)].Summary.MeanWait; ref > 0 {
							deg += 100 * (row.MeanWaits[ki] - ref) / ref
						}
					}
				}
				row.Mean = analysis.Mean(row.MeanWaits)
				row.Std = analysis.Std(row.MeanWaits)
				row.MeanThroughput = analysis.Mean(row.Throughputs)
				if baseline >= 0 {
					row.DegradationPct = deg / float64(len(p.seeds))
				}
				out = append(out, row)
			}
		}
	}
	return out
}

// newStressPlan derives the per-(area, scale) setups: each area size is
// the base setup plus a k×k area incident anchored at the loaded
// top-right corner (scenario.WithCornerAreaIncident) spanning the
// middle half of the sweep horizon at DefaultStressCapFrac residual
// capacity, crossed with the demand scales; area 0 keeps the base
// events untouched so the degradation baseline is the undisrupted run
// at the same demand.
func newStressPlan(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) (*stressPlan, error) {
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
	p := &stressPlan{
		pattern:     pattern,
		families:    RobustnessFamilies(),
		areas:       areas,
		scales:      scales,
		seeds:       seeds,
		periodSec:   DefaultRobustnessPeriodSec,
		durationSec: durationSec,
	}
	t0, dur := durationSec/4, durationSec/2
	for _, k := range areas {
		for _, scale := range scales {
			setup := base
			if k > 0 {
				var err error
				setup, err = base.WithCornerAreaIncident(k, t0, dur, DefaultStressCapFrac)
				if err != nil {
					return nil, err
				}
			}
			setup.DemandScale = scale
			p.setups = append(p.setups, setup)
		}
	}
	return p, nil
}

// StressSweep runs the area-incident stress study: every controller
// family of RobustnessFamilies across the area-size axis (k×k junction
// neighborhoods losing their approaches mid-run) crossed with the
// demand-scale axis and the seeds — the graceful-degradation surface
// of DESIGN.md §14. Cells run on the pooled sweep runner (runPlan);
// (area, scale) pairs have distinct artifacts, so the workers share one
// concurrency-safe ArtifactCache per pair and each worker keeps one
// EngineCache per pair on top. Results are bit-for-bit identical to
// StressSweepSerial for the same inputs
// (TestStressSweepPooledMatchesSerial).
func StressSweep(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) ([]StressStats, error) {
	return stressSweep(base, pattern, areas, scales, seeds, durationSec, true)
}

// StressSweepSerial is the fresh-engine reference of StressSweep: the
// same runner at width 1 with no engine cache, a new scenario and
// engine per cell. The pooled sweep is pinned bit-for-bit against it.
func StressSweepSerial(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64) ([]StressStats, error) {
	return stressSweep(base, pattern, areas, scales, seeds, durationSec, false)
}

func stressSweep(base scenario.Setup, pattern scenario.Pattern, areas []int, scales []float64, seeds []uint64, durationSec float64, pooled bool) ([]StressStats, error) {
	plan, err := newStressPlan(base, pattern, areas, scales, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	cells, err := runPlan(pooled, plan.setups, plan.cells(), plan.labels, plan.runCell)
	if err != nil {
		return nil, err
	}
	return plan.aggregate(cells), nil
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
