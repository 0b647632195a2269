package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/analysis"
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
	// MeanWaits are the per-seed network-mean queuing times, in the
	// sweep's seed order.
	MeanWaits []float64
	// Mean and Std summarize MeanWaits.
	Mean, Std float64
	// CompletionRate is the mean per-seed fraction of spawned vehicles
	// that exited within the horizon.
	CompletionRate float64
}

// matrixPlan enumerates the independent cells of a controller×sensor
// matrix sweep, identified by a flat index so pooled workers write into
// pre-sized slots and aggregation stays in plan order regardless of
// completion order — the same scheme as sensingPlan and the Table III
// sweepPlan.
type matrixPlan struct {
	workloads   []scenario.Workload
	controllers []scenario.ControllerSpec
	sensors     []sensing.Spec
	seeds       []uint64
	durationSec float64
	// setups holds one artifact base per distinct workload name;
	// setupOf maps a workload index to its entry, so a workload listed
	// twice shares one artifact and engine cache.
	setups  []scenario.Setup
	setupOf []int
}

func (p *matrixPlan) cells() int {
	return len(p.workloads) * len(p.controllers) * len(p.sensors) * len(p.seeds)
}

func (p *matrixPlan) cell(idx int) (wi, ci, si, ki int) {
	ki = idx % len(p.seeds)
	idx /= len(p.seeds)
	si = idx % len(p.sensors)
	idx /= len(p.sensors)
	ci = idx % len(p.controllers)
	return idx / len(p.controllers), ci, si, ki
}

// labels names a cell for the profiler.
func (p *matrixPlan) labels(idx int) cellLabels {
	wi, ci, si, _ := p.cell(idx)
	return cellLabels{p.workloads[wi].Name, p.controllers[ci].String(), p.sensors[si].String()}
}

// runCell executes one (workload, controller, sensor, seed) cell. With
// caches the cell runs on the worker's reused engine for the workload
// through EngineCache.RunSensor (engines keyed by grid and controller
// family, collaborators swapped per cell); with caches == nil it builds
// a fresh scenario and engine — the serial reference path the pooled
// scheduler is pinned against.
func (p *matrixPlan) runCell(caches []*EngineCache, idx int) (Result, error) {
	wi, ci, si, ki := p.cell(idx)
	w, ctl, spec, seed := p.workloads[wi], p.controllers[ci], p.sensors[si], p.seeds[ki]
	setup := w.Setup
	setup.Seed = seed
	setup.Sensor = spec
	factory, err := setup.Controller(ctl)
	if err != nil {
		return Result{}, fmt.Errorf("experiment: workload %s controller %v: %w", w.Name, ctl, err)
	}
	duration := w.SweepHorizon(p.durationSec)
	var res Result
	if caches != nil {
		var sensor sensing.Sensor
		if !spec.Perfect() {
			sensor, err = spec.New()
			if err == nil {
				sensor.Reseed(seed)
			}
		}
		if err == nil {
			// Specs of one family (e.g. gapout at different timers) share
			// the cached engine, like CAP-BP periods in the Table III sweep.
			family := ControllerFamily(ctl.Kind.String())
			res, err = caches[p.setupOf[wi]].RunSensor(w.Pattern, family, factory, sensor, seed, duration)
		}
	} else {
		res, err = Run(Spec{Setup: setup, Pattern: w.Pattern, Factory: factory, DurationSec: duration})
	}
	if err != nil {
		return Result{}, fmt.Errorf("experiment: workload %s controller %v sensor %v seed %d: %w",
			w.Name, ctl, spec, seed, err)
	}
	return res, nil
}

// aggregate folds the per-cell outcomes into MatrixStats rows in plan
// order (workload-major, then controller, then sensor).
func (p *matrixPlan) aggregate(cells []Result) []MatrixStats {
	nk := len(p.seeds)
	rows := make([]MatrixStats, 0, p.cells()/nk)
	for idx := 0; idx < p.cells(); idx += nk {
		wi, ci, si, _ := p.cell(idx)
		row := MatrixStats{
			Workload:   p.workloads[wi].Name,
			Controller: p.controllers[ci],
			Sensor:     p.sensors[si],
			MeanWaits:  make([]float64, nk),
		}
		comp := 0.0
		for ki := 0; ki < nk; ki++ {
			row.MeanWaits[ki] = cells[idx+ki].Summary.MeanWait
			comp += cells[idx+ki].Summary.CompletionRate
		}
		row.Mean = analysis.Mean(row.MeanWaits)
		row.Std = analysis.Std(row.MeanWaits)
		row.CompletionRate = comp / float64(nk)
		rows = append(rows, row)
	}
	return rows
}

func newMatrixPlan(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64) (*matrixPlan, error) {
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
	p := &matrixPlan{
		controllers: controllers,
		sensors:     sensors,
		seeds:       seeds,
		durationSec: durationSec,
	}
	setupOf := map[string]int{}
	for _, name := range workloadNames {
		w, ok := scenario.WorkloadByName(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %q", name)
		}
		if _, ok := setupOf[name]; !ok {
			setupOf[name] = len(p.setups)
			p.setups = append(p.setups, w.Setup)
		}
		p.workloads = append(p.workloads, w)
		p.setupOf = append(p.setupOf, setupOf[name])
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
	return p, nil
}

// MatrixSweep runs the full controller × sensor × workload × seed
// matrix on the pooled sweep runner (runPlan): every worker shares one
// concurrency-safe scenario.ArtifactCache per workload (immutable
// network, rates and route table exist once per process) and owns one
// EngineCache per workload, so a handful of engines serve the whole
// matrix via ResetWith controller/sensor swaps. Results are bit-for-bit
// identical to MatrixSweepSerial for the same inputs
// (TestMatrixSweepPooledMatchesSerial, run under -race in CI).
// durationSec is the flat horizon for workloads that do not suggest
// their own sweep horizon; 0 means each workload's pattern default.
func MatrixSweep(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64) ([]MatrixStats, error) {
	return matrixSweep(workloadNames, controllers, sensors, seeds, durationSec, true)
}

// MatrixSweepSerial is the fresh-engine reference of MatrixSweep: the
// same runner at width 1 with no engine cache, a new scenario and
// engine per cell. The pooled sweep is pinned bit-for-bit against it.
func MatrixSweepSerial(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64) ([]MatrixStats, error) {
	return matrixSweep(workloadNames, controllers, sensors, seeds, durationSec, false)
}

func matrixSweep(workloadNames []string, controllers []scenario.ControllerSpec, sensors []sensing.Spec, seeds []uint64, durationSec float64, pooled bool) ([]MatrixStats, error) {
	plan, err := newMatrixPlan(workloadNames, controllers, sensors, seeds, durationSec)
	if err != nil {
		return nil, err
	}
	cells, err := runPlan(pooled, plan.setups, plan.cells(), plan.labels, plan.runCell)
	if err != nil {
		return nil, err
	}
	return plan.aggregate(cells), nil
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

// PenetrationMatrixSweep crosses the connected-vehicle penetration
// axis (the perfect reference plus cv:<rate> for each rate; nil rates
// use DefaultPenetrationRates) through the matrix for every controller
// family of DefaultMatrixControllers — the full sensing × control cross
// the per-family PenetrationSweep (UTIL-BP only) does not cover. Rows
// come back in MatrixSweep's plan order: workload-major, then
// controller, then the penetration axis from perfect to cv:1.
func PenetrationMatrixSweep(workloadNames []string, rates []float64, seeds []uint64, durationSec float64) ([]MatrixStats, error) {
	if len(rates) == 0 {
		rates = DefaultPenetrationRates()
	}
	return MatrixSweep(workloadNames, DefaultMatrixControllers(), PenetrationSpecs(rates), seeds, durationSec)
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
