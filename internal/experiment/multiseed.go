package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
	"utilbp/internal/scenario"
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

// SeedRow is one row of a multi-seed sweep folded over its seeds: the
// sensing, robustness, stress and matrix rows embed it.
type SeedRow struct {
	// MeanWaits and Throughputs are the per-seed network-mean queuing
	// times and exited-vehicle counts, in the sweep's seed order.
	MeanWaits   []float64
	Throughputs []float64
	// Mean and Std summarize MeanWaits; MeanThroughput summarizes
	// Throughputs.
	Mean, Std      float64
	MeanThroughput float64
	// CompletionRate is the mean per-seed fraction of spawned vehicles
	// that exited within the horizon.
	CompletionRate float64
	// DegradationPct is the mean per-seed wait increase relative to the
	// row's reference row, in percent; zero for a row without one.
	DegradationPct float64
}

// seedRows folds a sweep's results, laid out as consecutive runs of
// len(seeds) cells per row, into one SeedRow per row. ref maps a row to
// the row its degradation is measured against, or -1 for none.
func seedRows(results []Result, seeds []uint64, ref func(row int) int) []SeedRow {
	nk := len(seeds)
	rows := make([]SeedRow, len(results)/nk)
	for r := range rows {
		row := SeedRow{MeanWaits: make([]float64, nk), Throughputs: make([]float64, nk)}
		rates := make([]float64, nk)
		cells, base := results[r*nk:][:nk], ref(r)
		deg := 0.0
		for k, res := range cells {
			row.MeanWaits[k] = res.Summary.MeanWait
			row.Throughputs[k] = float64(res.Totals.Exited)
			rates[k] = res.Summary.CompletionRate
			if base >= 0 {
				if w := results[base*nk+k].Summary.MeanWait; w > 0 {
					deg += 100 * (row.MeanWaits[k] - w) / w
				}
			}
		}
		row.Mean = analysis.Mean(row.MeanWaits)
		row.Std = analysis.Std(row.MeanWaits)
		row.MeanThroughput = analysis.Mean(row.Throughputs)
		row.CompletionRate = analysis.Mean(rates)
		if base >= 0 {
			row.DegradationPct = deg / float64(nk)
		}
		rows[r] = row
	}
	return rows
}

// tableIIICells lays out the Table III sweep: per (pattern, seed)
// group, one CAP-BP cell per period, then one UTIL-BP cell.
func tableIIICells(base scenario.Setup, patterns []scenario.Pattern, periods []int, seeds []uint64, durationSec float64) []cell {
	cells := make([]cell, 0, len(patterns)*len(seeds)*(len(periods)+1))
	for _, pat := range patterns {
		for _, seed := range seeds {
			setup := base
			setup.Seed = seed
			cells = append(cells, periodCells(setup, pat, periods, durationSec)...)
			cells = append(cells, cell{
				pattern: pat, family: FamilyUtilBP, factory: setup.UtilBP(),
				sensor: setup.Sensor, seed: seed, horizon: durationSec,
				workload: pat.String(), controller: string(FamilyUtilBP),
			})
		}
	}
	return cells
}

// periodCells returns the CAP-BP cells of one Table III group, one per
// control period, on setup's seed: the solid curve of Figure 2.
func periodCells(setup scenario.Setup, pattern scenario.Pattern, periods []int, durationSec float64) []cell {
	cells := make([]cell, len(periods))
	for i, p := range periods {
		cells[i] = cell{
			pattern: pattern, family: FamilyCapBP, factory: setup.CapBP(p),
			sensor: setup.Sensor, seed: setup.Seed, horizon: durationSec,
			workload: pattern.String(), controller: fmt.Sprintf("CAP-BP period %d", p),
		}
	}
	return cells
}

// tableIIIRows runs the Table III sweep and folds it into one row per
// (pattern, seed) group, pattern-major: per group the best
// (first-minimum) CAP-BP period is the baseline UTIL-BP is compared
// against.
func tableIIIRows(pooled bool, base scenario.Setup, patterns []scenario.Pattern, periods []int, seeds []uint64, durationSec float64) ([]TableIIIRow, error) {
	if patterns == nil {
		patterns = scenario.AllPatterns
	}
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	results, err := runSweep(pooled, []scenario.Setup{base}, tableIIICells(base, patterns, periods, seeds, durationSec))
	if err != nil {
		return nil, err
	}
	per := len(periods) + 1
	rows := make([]TableIIIRow, len(results)/per)
	capWaits := make([]float64, len(periods))
	for g := range rows {
		group := results[g*per:][:per]
		for i := range periods {
			capWaits[i] = group[i].Summary.MeanWait
		}
		best := analysis.ArgMin(capWaits)
		util := group[len(periods)].Summary.MeanWait
		imp, err := analysis.Improvement(capWaits[best], util)
		if err != nil {
			return nil, err
		}
		rows[g] = TableIIIRow{
			Pattern:        patterns[g/len(seeds)],
			CAPPeriodSec:   periods[best],
			CAPMeanWait:    capWaits[best],
			UTILMeanWait:   util,
			ImprovementPct: imp * 100,
		}
	}
	return rows, nil
}

// TableIIIMultiSeed runs the Table III comparison across seeds and
// aggregates the improvement distribution per pattern. Every
// (pattern × seed × period) cell of the sweep — plus each group's UTIL-BP
// run — is an independent cell of the pooled sweep runner (runSweep), so
// the whole sweep saturates the machine instead of serializing behind
// per-pattern barriers. All workers share one concurrency-safe
// scenario.ArtifactCache, so the immutable scenario state (network
// topology, rate tables, interned route table) is built once per
// pattern for the whole process; on top of it each worker owns an
// EngineCache: engines are built once per (network, controller family)
// and rewound between cells with sim.Engine.ResetWith instead of being
// reconstructed, which removes per-cell scenario and engine allocation
// from the sweep entirely (DESIGN.md §3, §5). Results come back in
// cell order and are folded in that order, making the output
// bit-for-bit identical to TableIIIMultiSeedSerial for the same inputs.
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
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	rows, err := tableIIIRows(pooled, base, patterns, periods, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	out := make([]SeedStats, len(rows)/len(seeds))
	for pi := range out {
		group := rows[pi*len(seeds):][:len(seeds)]
		stats := SeedStats{Pattern: group[0].Pattern, Improvements: make([]float64, len(seeds))}
		for si, row := range group {
			stats.Improvements[si] = row.ImprovementPct
			if row.ImprovementPct > 0 {
				stats.Wins++
			}
		}
		stats.Mean = analysis.Mean(stats.Improvements)
		stats.Std = analysis.Std(stats.Improvements)
		out[pi] = stats
	}
	return out, nil
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
