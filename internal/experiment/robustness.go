package experiment

import (
	"fmt"
	"math"
	"strings"

	"utilbp/internal/analysis"
	"utilbp/internal/event"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/telemetry"
)

// DefaultCapFracs returns the canonical disruption-severity axis: the
// undisrupted reference (capacity fraction 1 — the event plane is still
// armed, its transitions are no-ops) down to a near-total closure. The
// axis is deliberately bottom-heavy: the paper's W = 120 storage bound
// leaves so much headroom above typical occupancy that mild clamps
// never bind — capacity loss starts to bite only once the effective
// bound drops toward the queue actually standing on the road.
func DefaultCapFracs() []float64 { return []float64{1, 0.25, 0.1, 0.01} }

// DefaultRobustnessPeriodSec is the CAP-BP control period the
// robustness sweep runs the CAP-BP family at: near the Figure 2
// optimum, so the comparison is against CAP-BP at strength rather than
// a strawman period.
const DefaultRobustnessPeriodSec = 30

// RobustnessFamilies returns the controller families of the robustness
// sweep, in row order.
func RobustnessFamilies() []ControllerFamily {
	return []ControllerFamily{FamilyUtilBP, FamilyCapBP}
}

// RobustnessStats aggregates one (controller family × incident
// severity) row of the robustness sweep across seeds: how throughput
// and queuing degrade as a mid-run incident removes link capacity.
type RobustnessStats struct {
	// Family is the controller family of this row.
	Family ControllerFamily
	// CapFrac is the incident severity: the fraction of the disrupted
	// road's capacity remaining (1 = undisrupted reference).
	CapFrac float64
	// MeanWaits and Throughputs are the per-seed network-mean queuing
	// times and exited-vehicle counts, in the sweep's seed order.
	MeanWaits   []float64
	Throughputs []float64
	// Mean and Std summarize MeanWaits; MeanThroughput summarizes
	// Throughputs.
	Mean, Std      float64
	MeanThroughput float64
	// DegradationPct is the mean per-seed wait increase relative to the
	// same family's CapFrac = 1 row, in percent; zero when the severity
	// axis carries no undisrupted reference.
	DegradationPct float64
}

// robustnessPlan enumerates the independent cells of a robustness
// sweep: one run per (family × severity × seed), identified by a flat
// index so pooled workers write into pre-sized slots and aggregation
// stays in plan order — the scheme of sweepPlan/sensingPlan. Each
// severity is a derived Setup carrying the incident spec, so each has
// its own immutable artifact (and, pooled, its own engine/artifact
// caches: schedules are per-artifact state).
type robustnessPlan struct {
	pattern     scenario.Pattern
	families    []ControllerFamily
	capFracs    []float64
	setups      []scenario.Setup // per severity, incident armed
	seeds       []uint64
	periodSec   int
	durationSec float64
}

func (p *robustnessPlan) cells() int {
	return len(p.families) * len(p.capFracs) * len(p.seeds)
}

func (p *robustnessPlan) cell(idx int) (fi, ci, ki int) {
	ki = idx % len(p.seeds)
	row := idx / len(p.seeds)
	return row / len(p.capFracs), row % len(p.capFracs), ki
}

// labels names a cell for the profiler.
func (p *robustnessPlan) labels(idx int) cellLabels {
	fi, ci, _ := p.cell(idx)
	return cellLabels{p.pattern.String(), string(p.families[fi]), p.setups[ci].Sensor.String()}
}

// runCell executes one cell. With caches the cell runs on the
// severity's reused engine; with caches == nil it builds a fresh
// scenario and engine per cell — the serial reference the pooled
// scheduler is pinned against.
func (p *robustnessPlan) runCell(caches []*EngineCache, idx int) (Result, error) {
	fi, ci, ki := p.cell(idx)
	family, seed := p.families[fi], p.seeds[ki]
	// Both paths share one factory built from the seed-patched setup, so
	// a factory that ever consumes Setup.Seed keeps them in lockstep.
	setup := p.setups[ci]
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
		res, err = caches[ci].Run(p.pattern, family, factory, seed, p.durationSec)
	} else {
		res, err = Run(Spec{Setup: setup, Pattern: p.pattern, Factory: factory, DurationSec: p.durationSec})
	}
	if err != nil {
		return Result{}, fmt.Errorf("experiment: %s capacity %.2f seed %d: %w", family, p.capFracs[ci], seed, err)
	}
	return res, nil
}

// aggregate folds the per-cell results into RobustnessStats rows in
// (family, severity) order, with degradations computed per seed against
// the family's CapFrac = 1 row.
func (p *robustnessPlan) aggregate(cells []Result) []RobustnessStats {
	baseline := -1
	for ci, f := range p.capFracs {
		if f == 1 {
			baseline = ci
			break
		}
	}
	out := make([]RobustnessStats, 0, len(p.families)*len(p.capFracs))
	for fi, family := range p.families {
		for ci, frac := range p.capFracs {
			row := RobustnessStats{
				Family:      family,
				CapFrac:     frac,
				MeanWaits:   make([]float64, len(p.seeds)),
				Throughputs: make([]float64, len(p.seeds)),
			}
			deg := 0.0
			for ki := range p.seeds {
				at := func(c int) int { return (fi*len(p.capFracs)+c)*len(p.seeds) + ki }
				row.MeanWaits[ki] = cells[at(ci)].Summary.MeanWait
				row.Throughputs[ki] = float64(cells[at(ci)].Totals.Exited)
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
	return out
}

// newRobustnessPlan derives the per-severity setups: each severity is
// the base setup plus a central incident (scenario.WithCentralIncident)
// spanning the middle half of the sweep horizon, so every run sees both
// the degraded regime and the post-clearance recovery.
func newRobustnessPlan(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64) (*robustnessPlan, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	if len(capFracs) == 0 {
		capFracs = DefaultCapFracs()
	}
	if durationSec <= 0 {
		durationSec = pattern.Duration()
	}
	p := &robustnessPlan{
		pattern:     pattern,
		families:    RobustnessFamilies(),
		capFracs:    capFracs,
		seeds:       seeds,
		periodSec:   DefaultRobustnessPeriodSec,
		durationSec: durationSec,
	}
	t0, dur := durationSec/4, durationSec/2
	for _, frac := range capFracs {
		setup, err := base.WithCentralIncident(t0, dur, frac)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, setup)
	}
	return p, nil
}

// RobustnessSweep runs the throughput-under-capacity-loss experiment:
// every controller family of RobustnessFamilies across the incident
// severity axis and the seeds, on a mid-run central incident spanning
// the middle half of the horizon. Cells run on the pooled sweep runner
// (runPlan); severities have distinct artifacts (the disruption
// schedule is compiled into them), so the workers share one
// concurrency-safe ArtifactCache per severity and each worker keeps
// one EngineCache per severity on top. Results are bit-for-bit
// identical to RobustnessSweepSerial for the same inputs
// (TestRobustnessSweepPooledMatchesSerial).
func RobustnessSweep(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64) ([]RobustnessStats, error) {
	return robustnessSweep(base, pattern, capFracs, seeds, durationSec, true)
}

// RobustnessSweepSerial is the fresh-engine reference of
// RobustnessSweep: the same runner at width 1 with no engine cache, a
// new scenario and engine per cell. The pooled sweep is pinned
// bit-for-bit against it.
func RobustnessSweepSerial(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64) ([]RobustnessStats, error) {
	return robustnessSweep(base, pattern, capFracs, seeds, durationSec, false)
}

func robustnessSweep(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64, pooled bool) ([]RobustnessStats, error) {
	plan, err := newRobustnessPlan(base, pattern, capFracs, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	cells, err := runPlan(pooled, plan.setups, plan.cells(), plan.labels, plan.runCell)
	if err != nil {
		return nil, err
	}
	return plan.aggregate(cells), nil
}

// FormatRobustnessStats renders the robustness sweep table.
func FormatRobustnessStats(rows []RobustnessStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput and queuing under capacity loss, %d seeds\n", len(seeds))
	fmt.Fprintf(&b, "%-10s %-10s %-20s %-12s %s\n", "Family", "capacity", "wait mean ± std (s)", "throughput", "vs intact")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s %-20s %-12.0f %+.1f%%\n",
			r.Family,
			fmt.Sprintf("%.0f%%", 100*r.CapFrac),
			fmt.Sprintf("%.1f ± %.1f", r.Mean, r.Std),
			r.MeanThroughput,
			r.DegradationPct)
	}
	return b.String()
}

// RecoveryResult reports how a run absorbed its first incident: the
// network-wide queue level at onset, the peak while degraded, and how
// long after clearance the queues needed to drain back to the onset
// level.
type RecoveryResult struct {
	// OnsetQueued is the network-wide queued-vehicle count at the
	// incident onset, averaged over the minute before it (a stationary
	// total still fluctuates step to step; an instantaneous sample
	// would make the recovery threshold a lottery over that noise).
	// PeakQueued is the maximum instantaneous total from onset until
	// recovery (or the horizon).
	OnsetQueued, PeakQueued int
	// RecoverySec is the time from incident clearance until the total
	// queued count first returned to its onset level, in seconds; -1
	// when the queues never recovered within the horizon (blow-up).
	RecoverySec float64
	// DrainTimes and DrainQueued are the full recovery trajectory the
	// scalars above collapse to: the network-wide queued total at every
	// mini-slot of the run with its time axis in seconds, straight off
	// the telemetry net series the metric is computed from (the drain
	// curve papereval -drain renders).
	DrainTimes, DrainQueued []float64
}

// Recovered reports whether the queues drained back to their onset
// level within the horizon.
func (r RecoveryResult) Recovered() bool { return r.RecoverySec >= 0 }

// MeasureRecovery runs the spec to completion while watching the first
// incident of its event schedule: it records the network-wide queued
// total at the incident onset (averaged over the preceding minute),
// tracks the peak, and measures how long after clearance the total
// first drains back to the onset level — the recovery-time metric of
// the robustness experiment. The metric is only meaningful at a stable
// operating point: the onset level must be an equilibrium, not a point
// on the fill transient, so place the onset past warm-up and scale
// demand below the stability margin. The spec's setup must carry at
// least one incident event.
func MeasureRecovery(spec Spec) (RecoveryResult, error) {
	engine, built, duration, err := Prepare(spec)
	if err != nil {
		return RecoveryResult{}, err
	}
	var incident *event.Spec
	for _, ev := range built.Events.Specs() {
		if ev.Kind == event.KindIncident {
			incident = &ev
			break
		}
	}
	if incident == nil {
		return RecoveryResult{}, fmt.Errorf("experiment: MeasureRecovery needs an incident event in the setup")
	}
	dt := engine.DeltaT()
	onsetStep := int(math.Round(incident.T0 / dt))
	clearStep := onsetStep + max(1, int(math.Round(incident.Dur/dt)))
	// The onset level averages the minute before the incident (clamped
	// to the run start for very early onsets).
	baseStep := max(0, onsetStep-int(math.Round(60/dt)))
	// The metric is computed off a telemetry net recorder sized for the
	// whole run (recording is observation-only, so instrumenting the run
	// cannot change it), which also yields the full drain curve instead
	// of only its scalars.
	rec, err := telemetry.NewRecorder(telemetry.Net(), int(math.Ceil(duration/dt))+1)
	if err != nil {
		return RecoveryResult{}, err
	}
	if err := engine.InstallTelemetry(rec); err != nil {
		return RecoveryResult{}, err
	}
	engine.RunFor(duration)
	engine.FinalizeWaits()
	if err := engine.CheckInvariants(); err != nil {
		return RecoveryResult{}, err
	}
	res := RecoveryResult{RecoverySec: -1}
	res.DrainQueued = rec.NetQueued()
	res.DrainTimes = rec.Times()
	first := rec.FirstStep()
	baseSum, baseN := 0, 0
	for i, qf := range res.DrainQueued {
		step, q := first+i, int(qf)
		if step < baseStep {
			continue
		}
		if step < onsetStep {
			baseSum, baseN = baseSum+q, baseN+1
			continue
		}
		if step == onsetStep {
			baseSum, baseN = baseSum+q, baseN+1
			res.OnsetQueued = (baseSum + baseN/2) / baseN
		}
		if q > res.PeakQueued {
			res.PeakQueued = q
		}
		if step >= clearStep && q <= res.OnsetQueued {
			res.RecoverySec = float64(step-clearStep) * dt
			break
		}
	}
	return res, nil
}
