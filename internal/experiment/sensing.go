package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// SensingStats aggregates the UTIL-BP runs of one sensor spec across
// the sweep's seeds: how much control performance degrades when the
// controller sees estimated queues instead of exact ones (the paper's
// CPS fidelity axis; cf. arXiv:2006.15549).
type SensingStats struct {
	// Spec is the sensor configuration of this row.
	Spec sensing.Spec
	// SeedRow holds the row's per-seed results; DegradationPct is
	// measured against the sweep's first perfect spec, zero when the
	// sweep carries none.
	SeedRow
}

// SensingSweep runs UTIL-BP under every sensor spec across the seeds —
// the Table-III-style sweep along the observation axis. Cells run on
// the pooled sweep runner (runSweep): all workers share one
// concurrency-safe scenario.ArtifactCache and each owns an EngineCache,
// so one engine per worker serves every (sensor × seed) cell via
// ResetWith sensor swaps. Results are bit-for-bit identical to
// SensingSweepSerial for the same inputs
// (TestSensingSweepPooledMatchesSerial).
func SensingSweep(base scenario.Setup, pattern scenario.Pattern, specs []sensing.Spec, seeds []uint64, durationSec float64) ([]SensingStats, error) {
	return sensingSweep(base, pattern, specs, seeds, durationSec, true)
}

// SensingSweepSerial is the fresh-engine reference of SensingSweep:
// the same runner at width 1 with no engine cache, a new scenario and
// engine per cell. The pooled sweep is pinned bit-for-bit against it.
func SensingSweepSerial(base scenario.Setup, pattern scenario.Pattern, specs []sensing.Spec, seeds []uint64, durationSec float64) ([]SensingStats, error) {
	return sensingSweep(base, pattern, specs, seeds, durationSec, false)
}

func sensingSweep(base scenario.Setup, pattern scenario.Pattern, specs []sensing.Spec, seeds []uint64, durationSec float64, pooled bool) ([]SensingStats, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiment: at least one sensor spec required")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	perfect := -1
	cells := make([]cell, 0, len(specs)*len(seeds))
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if perfect < 0 && spec.Perfect() {
			perfect = i
		}
		for _, seed := range seeds {
			setup := base
			setup.Seed, setup.Sensor = seed, spec
			cells = append(cells, cell{
				pattern: pattern, family: FamilyUtilBP, factory: setup.UtilBP(),
				sensor: spec, seed: seed, horizon: durationSec,
				workload: pattern.String(), controller: string(FamilyUtilBP),
			})
		}
	}
	results, err := runSweep(pooled, []scenario.Setup{base}, cells)
	if err != nil {
		return nil, err
	}
	rows := seedRows(results, seeds, func(int) int { return perfect })
	out := make([]SensingStats, len(rows))
	for i, row := range rows {
		out[i] = SensingStats{Spec: specs[i], SeedRow: row}
	}
	return out, nil
}

// PenetrationSpecs returns the canonical penetration-rate axis: the
// perfect reference followed by ConnectedVehicle specs at the given
// rates.
func PenetrationSpecs(rates []float64) []sensing.Spec {
	specs := make([]sensing.Spec, 0, len(rates)+1)
	specs = append(specs, sensing.Spec{})
	for _, r := range rates {
		specs = append(specs, sensing.CV(r))
	}
	return specs
}

// DefaultPenetrationRates returns the 0.1..1.0 connected-vehicle
// penetration axis of the sensing experiment.
func DefaultPenetrationRates() []float64 {
	var out []float64
	for r := 1; r <= 10; r++ {
		out = append(out, float64(r)/10)
	}
	return out
}

// PenetrationSweep runs the connected-vehicle penetration-rate sweep
// (perfect reference plus cv:<rate> for each rate) on the given
// pattern through the pooled scheduler.
func PenetrationSweep(base scenario.Setup, pattern scenario.Pattern, rates []float64, seeds []uint64, durationSec float64) ([]SensingStats, error) {
	if len(rates) == 0 {
		rates = DefaultPenetrationRates()
	}
	return SensingSweep(base, pattern, PenetrationSpecs(rates), seeds, durationSec)
}

// FormatSensingStats renders the sensing sweep table.
func FormatSensingStats(rows []SensingStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UTIL-BP mean queuing time by observation sensor, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-24s %-20s %s\n", "Sensor", "wait mean ± std (s)", "vs perfect")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-20s %+.1f%%\n",
			r.Spec.String(),
			fmt.Sprintf("%.1f ± %.1f", r.Mean, r.Std),
			r.DegradationPct)
	}
	return b.String()
}
