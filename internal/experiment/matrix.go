package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// MatrixStats aggregates the runs of one (workload, controller, sensor)
// matrix cell across the sweep's seeds: how each controller family of
// the zoo holds up on each workload under each observation model — the
// full cross of the control and sensing axes (DESIGN.md §13,
// cf. arXiv:2006.15549's controller benchmarking matrix).
type MatrixStats struct {
	// Workload is the registry key of the row's workload.
	Workload string
	// Controller is the controller spec of this row.
	Controller scenario.ControllerSpec
	// Sensor is the observation spec of this row.
	Sensor sensing.Spec
	// SeedRow holds the row's per-seed results; matrix rows carry no
	// degradation reference.
	SeedRow
}

// MatrixSweep runs the full controller × sensor × workload × seed
// matrix on the pooled sweep runner (runSweep): every worker shares one
// concurrency-safe scenario.ArtifactCache per workload (immutable
// network, rates and route table exist once per process) and owns one
// EngineCache per workload, so a handful of engines serve the whole
// matrix via ResetWith controller/sensor swaps. Results are bit-for-bit
// identical to the serial fresh-engine reference for the same inputs
// (TestMatrixSweepPooledMatchesSerial, run under -race in CI).
// durationSec is the flat horizon for workloads that do not suggest
// their own sweep horizon; 0 means each workload's pattern default.
func MatrixSweep(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64) ([]MatrixStats, error) {
	return matrixSweep(workloadNames, controllers, sensors, seeds, durationSec, true)
}

// matrixSweep runs MatrixSweep pooled, or serial on fresh engines
// (runSweep) as the reference the pooled-vs-serial pins compare against.
func matrixSweep(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64, pooled bool) ([]MatrixStats, error) {
	if len(workloadNames) == 0 {
		return nil, fmt.Errorf("experiment: at least one workload required")
	}
	if len(controllers) == 0 {
		return nil, fmt.Errorf("experiment: at least one controller spec required")
	}
	if len(sensors) == 0 {
		return nil, fmt.Errorf("experiment: at least one sensor spec required")
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiment: at least one seed required")
	}
	for _, ctl := range controllers {
		if err := ctl.Validate(); err != nil {
			return nil, err
		}
	}
	for _, spec := range sensors {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	// One base setup per distinct workload name, so a workload listed
	// twice shares one artifact and engine cache.
	var setups []scenario.Setup
	setupOf := map[string]int{}
	var cells []cell
	var out []MatrixStats
	for _, name := range workloadNames {
		w, ok := scenario.WorkloadByName(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %q", name)
		}
		if _, ok := setupOf[name]; !ok {
			setupOf[name] = len(setups)
			setups = append(setups, w.Setup)
		}
		for _, ctl := range controllers {
			for _, spec := range sensors {
				out = append(out, MatrixStats{Workload: name, Controller: ctl, Sensor: spec})
				for _, seed := range seeds {
					setup := w.Setup
					setup.Seed, setup.Sensor = seed, spec
					factory, err := setup.Controller(ctl)
					if err != nil {
						return nil, fmt.Errorf("experiment: workload %s controller %v: %w", name, ctl, err)
					}
					// Specs of one family (e.g. gapout at different timers)
					// share the cached engine, like CAP-BP periods in the
					// Table III sweep.
					cells = append(cells, cell{
						setup: setupOf[name], pattern: w.Pattern,
						family: ControllerFamily(ctl.Kind.String()), factory: factory,
						sensor: spec, seed: seed, horizon: w.SweepHorizon(durationSec),
						workload: name, controller: ctl.String(),
					})
				}
			}
		}
	}
	results, err := runSweep(pooled, setups, cells)
	if err != nil {
		return nil, err
	}
	for i, row := range seedRows(results, seeds, func(int) int { return -1 }) {
		out[i].SeedRow = row
	}
	return out, nil
}

// DefaultMatrixControllers returns the canonical controller axis of the
// matrix sweep: one representative spec per family of the zoo.
func DefaultMatrixControllers() []scenario.ControllerSpec {
	return []scenario.ControllerSpec{
		{Kind: scenario.ControllerUtil},
		{Kind: scenario.ControllerCap, PeriodSec: 20},
		{Kind: scenario.ControllerFixed, PeriodSec: 16},
		{Kind: scenario.ControllerMaxPressure},
		{Kind: scenario.ControllerGapOut},
		{Kind: scenario.ControllerBPEst},
	}
}

// FormatMatrixStats renders the matrix sweep as a papereval-style
// table, grouped by workload.
func FormatMatrixStats(rows []MatrixStats, seeds []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Controller × sensor matrix, mean queuing time, %d seeds\n", len(seeds))
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&b, "%s\n", r.Workload)
			last = r.Workload
		}
		fmt.Fprintf(&b, "  %-16s %-12s %-18s %5.1f%% complete\n",
			r.Controller.String(), r.Sensor.String(),
			fmt.Sprintf("%.1f ± %.1f s", r.Mean, r.Std),
			100*r.CompletionRate)
	}
	return b.String()
}
