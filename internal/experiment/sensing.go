package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
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
	// MeanWaits are the per-seed network-mean queuing times, in the
	// sweep's seed order.
	MeanWaits []float64
	// Mean and Std summarize MeanWaits.
	Mean, Std float64
	// DegradationPct is the mean per-seed wait increase relative to the
	// sweep's perfect-sensor reference, in percent; zero when the sweep
	// carries no perfect spec.
	DegradationPct float64
}

// sensingPlan enumerates the independent cells of a sensor sweep: one
// UTIL-BP run per (sensor spec × seed), identified by a flat index so
// pooled workers write into pre-sized slots and aggregation stays in
// plan order regardless of completion order — the same scheme as the
// Table III sweepPlan.
type sensingPlan struct {
	base        scenario.Setup
	pattern     scenario.Pattern
	specs       []sensing.Spec
	seeds       []uint64
	durationSec float64
}

func (p *sensingPlan) cells() int { return len(p.specs) * len(p.seeds) }

func (p *sensingPlan) cell(idx int) (si, ki int) {
	return idx / len(p.seeds), idx % len(p.seeds)
}

// labels names a cell for the profiler.
func (p *sensingPlan) labels(idx int) cellLabels {
	si, _ := p.cell(idx)
	return cellLabels{p.pattern.String(), string(FamilyUtilBP), p.specs[si].String()}
}

// runCell executes one (spec, seed) cell. With caches the cell runs on
// a reused engine through EngineCache.RunSensor; with caches == nil it
// builds a fresh scenario (Setup.Sensor carries the spec) and engine
// per cell — the serial reference path the pooled scheduler is pinned
// against.
func (p *sensingPlan) runCell(caches []*EngineCache, idx int) (Result, error) {
	si, ki := p.cell(idx)
	spec, seed := p.specs[si], p.seeds[ki]
	setup := p.base
	setup.Seed = seed
	setup.Sensor = spec
	factory := setup.UtilBP()
	var (
		res Result
		err error
	)
	if caches != nil {
		var sensor sensing.Sensor
		if !spec.Perfect() {
			sensor, err = spec.New()
			if err == nil {
				sensor.Reseed(seed)
			}
		}
		if err == nil {
			res, err = caches[0].RunSensor(p.pattern, FamilyUtilBP, factory, sensor, seed, p.durationSec)
		}
	} else {
		res, err = Run(Spec{Setup: setup, Pattern: p.pattern, Factory: factory, DurationSec: p.durationSec})
	}
	if err != nil {
		return Result{}, fmt.Errorf("experiment: pattern %v sensor %v seed %d: %w", p.pattern, spec, seed, err)
	}
	return res, nil
}

// aggregate folds the per-cell mean waits into SensingStats rows in
// spec order, with degradations computed per seed against the first
// perfect spec of the sweep.
func (p *sensingPlan) aggregate(cells []Result) []SensingStats {
	perfect := -1
	for si, spec := range p.specs {
		if spec.Perfect() {
			perfect = si
			break
		}
	}
	out := make([]SensingStats, 0, len(p.specs))
	for si, spec := range p.specs {
		row := SensingStats{Spec: spec, MeanWaits: make([]float64, len(p.seeds))}
		deg := 0.0
		for ki := range p.seeds {
			w := cells[si*len(p.seeds)+ki].Summary.MeanWait
			row.MeanWaits[ki] = w
			if perfect >= 0 {
				if ref := cells[perfect*len(p.seeds)+ki].Summary.MeanWait; ref > 0 {
					deg += 100 * (w - ref) / ref
				}
			}
		}
		row.Mean = analysis.Mean(row.MeanWaits)
		row.Std = analysis.Std(row.MeanWaits)
		if perfect >= 0 {
			row.DegradationPct = deg / float64(len(p.seeds))
		}
		out = append(out, row)
	}
	return out
}

func newSensingPlan(base scenario.Setup, pattern scenario.Pattern, specs []sensing.Spec, seeds []uint64, durationSec float64) (*sensingPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiment: at least one sensor spec required")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	return &sensingPlan{base: base, pattern: pattern, specs: specs, seeds: seeds, durationSec: durationSec}, nil
}

// SensingSweep runs UTIL-BP under every sensor spec across the seeds —
// the Table-III-style sweep along the observation axis. Cells run on
// the pooled sweep runner (runPlan): all workers share one
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
	plan, err := newSensingPlan(base, pattern, specs, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	cells, err := runPlan(pooled, []scenario.Setup{base}, plan.cells(), plan.labels, plan.runCell)
	if err != nil {
		return nil, err
	}
	return plan.aggregate(cells), nil
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
