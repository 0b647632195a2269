package experiment

import (
	"fmt"
	"math"
	"strings"

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
	// SeedRow holds the row's per-seed results; DegradationPct is
	// measured against the same family's CapFrac = 1 row, zero when the
	// severity axis carries no undisrupted reference.
	SeedRow
}

// familyCells lays out the robustness and stress sweeps: per
// controller family of RobustnessFamilies, per derived setup, one cell
// per seed — CAP-BP at DefaultRobustnessPeriodSec, UTIL-BP as is.
func familyCells(setups []scenario.Setup, pattern scenario.Pattern, seeds []uint64, durationSec float64) []cell {
	families := RobustnessFamilies()
	cells := make([]cell, 0, len(families)*len(setups)*len(seeds))
	for _, family := range families {
		for si, base := range setups {
			for _, seed := range seeds {
				setup := base
				setup.Seed = seed
				var factory signal.Factory
				if family == FamilyCapBP {
					factory = setup.CapBP(DefaultRobustnessPeriodSec)
				} else {
					factory = setup.UtilBP()
				}
				cells = append(cells, cell{
					setup: si, pattern: pattern, family: family, factory: factory,
					sensor: setup.Sensor, seed: seed, horizon: durationSec,
					workload: pattern.String(), controller: string(family),
				})
			}
		}
	}
	return cells
}

// RobustnessSweep runs the throughput-under-capacity-loss experiment:
// every controller family of RobustnessFamilies across the incident
// severity axis and the seeds, on a mid-run central incident spanning
// the middle half of the horizon. Cells run on the pooled sweep runner
// (runSweep); severities have distinct artifacts (the disruption
// schedule is compiled into them), so the workers share one
// concurrency-safe ArtifactCache per severity and each worker keeps
// one EngineCache per severity on top. Results are bit-for-bit
// identical to the serial fresh-engine reference for the same inputs
// (TestRobustnessSweepPooledMatchesSerial).
func RobustnessSweep(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64) ([]RobustnessStats, error) {
	return robustnessSweep(base, pattern, capFracs, seeds, durationSec, true)
}

// robustnessSweep runs RobustnessSweep pooled, or serial on fresh engines
// (runSweep) as the reference the pooled-vs-serial pins compare against.
func robustnessSweep(base scenario.Setup, pattern scenario.Pattern, capFracs []float64, seeds []uint64, durationSec float64, pooled bool) ([]RobustnessStats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	if len(capFracs) == 0 {
		capFracs = DefaultCapFracs()
	}
	if durationSec <= 0 {
		durationSec = pattern.Duration()
	}
	// Each severity is the base setup plus a central incident spanning
	// the middle half of the sweep horizon, so every run sees both the
	// degraded regime and the post-clearance recovery.
	setups := make([]scenario.Setup, len(capFracs))
	intact := -1
	for i, frac := range capFracs {
		var err error
		if setups[i], err = base.WithCentralIncident(durationSec/4, durationSec/2, frac); err != nil {
			return nil, err
		}
		if intact < 0 && frac == 1 {
			intact = i
		}
	}
	results, err := runSweep(pooled, setups, familyCells(setups, pattern, seeds, durationSec))
	if err != nil {
		return nil, err
	}
	// A row's reference is the same family's intact row.
	rows := seedRows(results, seeds, func(row int) int {
		if intact < 0 {
			return -1
		}
		return row - row%len(setups) + intact
	})
	out := make([]RobustnessStats, len(rows))
	families := RobustnessFamilies()
	for r, row := range rows {
		out[r] = RobustnessStats{Family: families[r/len(setups)], CapFrac: capFracs[r%len(setups)], SeedRow: row}
	}
	return out, nil
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
	if _, err := Finish(engine, spec.Factory, spec.Pattern, duration); err != nil {
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
