package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
)

// SeedStats aggregates one Table III row over multiple seeds.
type SeedStats struct {
	Pattern scenario.Pattern
	// Improvements are per-seed improvement percentages; Mean and Std
	// summarize them.
	Improvements []float64
	Mean, Std    float64
	// Wins counts seeds where UTIL-BP beat CAP-BP's best period.
	Wins int
}

// sweepPlan enumerates every independent cell of the Table III multi-seed
// sweep: for each (pattern, seed) group, one CAP-BP run per period plus
// one UTIL-BP run. Cells are identified by a flat index so workers can
// write results into pre-sized slices and aggregation stays in
// deterministic (pattern, seed, period) order no matter which worker
// finishes when.
type sweepPlan struct {
	base        scenario.Setup
	patterns    []scenario.Pattern
	periods     []int
	seeds       []uint64
	durationSec float64
}

// perGroup returns the number of cells in one (pattern, seed) group: the
// CAP-BP period sweep plus the UTIL-BP run.
func (p *sweepPlan) perGroup() int { return len(p.periods) + 1 }

// cells returns the total cell count.
func (p *sweepPlan) cells() int { return len(p.patterns) * len(p.seeds) * p.perGroup() }

// cell decomposes a flat index into (pattern index, seed index, job),
// where job < len(periods) selects CAP-BP at periods[job] and
// job == len(periods) selects the UTIL-BP run.
func (p *sweepPlan) cell(idx int) (pi, si, job int) {
	job = idx % p.perGroup()
	group := idx / p.perGroup()
	return group / len(p.seeds), group % len(p.seeds), job
}

// labels names a cell for the profiler.
func (p *sweepPlan) labels(idx int) cellLabels {
	pi, _, job := p.cell(idx)
	return cellLabels{p.patterns[pi].String(), cellLabel(p.periods, job), p.base.Sensor.String()}
}

// runCell executes one cell. With caches the cell runs on a reused
// engine (the pooled scheduler's path); with caches == nil it builds a
// fresh scenario and engine per cell (the serial reference path). Both
// paths are pinned bit-for-bit equal by
// TestMultiSeedSchedulerDeterminism.
func (p *sweepPlan) runCell(caches []*EngineCache, idx int) (Result, error) {
	pi, si, job := p.cell(idx)
	pattern, seed := p.patterns[pi], p.seeds[si]
	// Both paths share one factory built from the seed-patched setup, so
	// a factory that ever consumes Setup.Seed keeps them in lockstep.
	setup := p.base
	setup.Seed = seed
	var (
		family  ControllerFamily
		factory signal.Factory
	)
	if job < len(p.periods) {
		family, factory = FamilyCapBP, setup.CapBP(p.periods[job])
	} else {
		family, factory = FamilyUtilBP, setup.UtilBP()
	}
	var res Result
	var err error
	if caches != nil {
		res, err = caches[0].Run(pattern, family, factory, seed, p.durationSec)
	} else {
		res, err = Run(Spec{Setup: setup, Pattern: pattern, Factory: factory, DurationSec: p.durationSec})
	}
	if err != nil {
		return Result{}, fmt.Errorf("experiment: pattern %v seed %d %s: %w",
			pattern, seed, cellLabel(p.periods, job), err)
	}
	return res, nil
}

func cellLabel(periods []int, job int) string {
	if job < len(periods) {
		return fmt.Sprintf("CAP-BP period %d", periods[job])
	}
	return "UTIL-BP"
}

// aggregate folds the per-cell mean waits into SeedStats rows, in pattern
// order: per (pattern, seed) the best (first-minimum) CAP-BP period is
// the baseline the UTIL-BP run is compared against.
func (p *sweepPlan) aggregate(cells []Result) ([]SeedStats, error) {
	out := make([]SeedStats, 0, len(p.patterns))
	per := p.perGroup()
	capWaits := make([]float64, len(p.periods))
	for pi, pat := range p.patterns {
		stats := SeedStats{Pattern: pat, Improvements: make([]float64, len(p.seeds))}
		for si := range p.seeds {
			group := cells[(pi*len(p.seeds)+si)*per:][:per]
			for job := range capWaits {
				capWaits[job] = group[job].Summary.MeanWait
			}
			best := capWaits[analysis.ArgMin(capWaits)]
			imp, err := analysis.Improvement(best, group[len(p.periods)].Summary.MeanWait)
			if err != nil {
				return nil, err
			}
			stats.Improvements[si] = imp * 100
			if stats.Improvements[si] > 0 {
				stats.Wins++
			}
		}
		stats.Mean = analysis.Mean(stats.Improvements)
		stats.Std = analysis.Std(stats.Improvements)
		out = append(out, stats)
	}
	return out, nil
}

func newSweepPlan(base scenario.Setup, patterns []scenario.Pattern, periods []int, seeds []uint64, durationSec float64) (*sweepPlan, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	if patterns == nil {
		patterns = scenario.AllPatterns
	}
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	return &sweepPlan{base: base, patterns: patterns, periods: periods, seeds: seeds, durationSec: durationSec}, nil
}

// TableIIIMultiSeed runs the Table III comparison across seeds and
// aggregates the improvement distribution per pattern. Every
// (pattern × seed × period) cell of the sweep — plus each group's UTIL-BP
// run — is an independent cell of the pooled sweep runner (runPlan), so
// the whole sweep saturates the machine instead of serializing behind
// per-pattern barriers. All workers share one concurrency-safe
// scenario.ArtifactCache, so the immutable scenario state (network
// topology, rate tables, interned route table) is built once per
// pattern for the whole process; on top of it each worker owns an
// EngineCache: engines are built once per (network, controller family)
// and rewound between cells with sim.Engine.ResetWith instead of being
// reconstructed, which removes per-cell scenario and engine allocation
// from the sweep entirely (DESIGN.md §3, §5). Results land in
// cell-indexed slots and are aggregated in plan order, making the
// output bit-for-bit identical to TableIIIMultiSeedSerial for the same
// inputs.
func TableIIIMultiSeed(base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64) ([]SeedStats, error) {
	return tableIIIMultiSeed(base, patterns, periods, durationSec, seeds, true)
}

// TableIIIMultiSeedSerial is the fresh-engine reference of
// TableIIIMultiSeed: the same runner at width 1 with no engine cache,
// so every cell builds its own scenario and engine and engine reuse
// always has a no-reuse baseline to be compared against. The pooled
// sweep is tested to produce bit-for-bit identical SeedStats.
func TableIIIMultiSeedSerial(base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64) ([]SeedStats, error) {
	return tableIIIMultiSeed(base, patterns, periods, durationSec, seeds, false)
}

func tableIIIMultiSeed(base scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64, seeds []uint64, pooled bool) ([]SeedStats, error) {
	plan, err := newSweepPlan(base, patterns, periods, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	cells, err := runPlan(pooled, []scenario.Setup{base}, plan.cells(), plan.labels, plan.runCell)
	if err != nil {
		return nil, err
	}
	return plan.aggregate(cells)
}

// FormatSeedStats renders the multi-seed table.
func FormatSeedStats(rows []SeedStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UTIL-BP improvement over best-period CAP-BP, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-8s %-18s %s\n", "Pattern", "mean ± std", "wins")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-18s %d/%d\n",
			r.Pattern.String(),
			fmt.Sprintf("%+.1f%% ± %.1f%%", r.Mean, r.Std),
			r.Wins, len(r.Improvements))
	}
	return b.String()
}
