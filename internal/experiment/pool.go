package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
)

// cellLabels names a sweep cell along the profiling axes.
type cellLabels struct{ workload, controller, sensor string }

// runCells is the scheduler under runSweep and ChaosSweep: it runs
// cells 0..n-1 on min(width, n) worker goroutines and returns their
// results in cell order. Cells are handed out in index order over an
// unbuffered channel. Each worker builds its state with newWorker once,
// before its first cell, and passes it to every cell it runs; a nil
// newWorker leaves the zero S, which runSweep reads as "no caches,
// build a fresh engine". Once a cell fails no further cell is handed
// out (a send already under way may still complete) and cells already
// running finish; the error returned is the first in cell order among
// the cells that ran. Every cell runs under runtime/pprof labels —
// workload, controller, sensor and worker index — so a CPU profile of
// any sweep attributes samples per cell (`go tool pprof -tagfocus`);
// the label set allocates, which is noise at cell granularity.
func runCells[S, R any](n, width int, newWorker func() S, label func(idx int) cellLabels, run func(s S, idx int) (R, error)) ([]R, error) {
	out := make([]R, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(max(width, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			if newWorker != nil {
				s = newWorker()
			}
			for idx := range jobs {
				l := label(idx)
				pprof.Do(context.Background(), pprof.Labels(
					"workload", l.workload,
					"controller", l.controller,
					"sensor", l.sensor,
					"worker", strconv.Itoa(w),
				), func(context.Context) { out[idx], errs[idx] = run(s, idx) })
				if errs[idx] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for idx := 0; idx < n && !failed.Load(); idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// poolWidth is the runner width of a pooled sweep: one worker per
// GOMAXPROCS slot.
func poolWidth() int { return runtime.GOMAXPROCS(0) }

// cell is one run of a sweep: a controller on one of the sweep's base
// setups and demand patterns, observed through a sensor, for one seed.
// Its factory is built from the base setup patched to the cell's seed
// (and sensor), so the pooled and serial paths run the same factory.
type cell struct {
	setup   int // index of the cell's base setup in the sweep's setups
	pattern scenario.Pattern
	// family keys the cached engine: cells of one family share it.
	family  ControllerFamily
	factory signal.Factory
	sensor  sensing.Spec
	seed    uint64
	// horizon overrides the pattern's default horizon when > 0.
	horizon float64
	// workload and controller name the cell in profiles and errors.
	workload, controller string
}

// runSweep runs a sweep's cells, whose base setups are setups, and
// returns their results in cell order. Pooled, the cells run on
// poolWidth workers that share one concurrency-safe
// scenario.ArtifactCache per setup and each own one EngineCache per
// setup on top (engines built lazily, rewound per cell through
// sim.Engine.ResetWith). Serial, it is the fresh-engine reference the
// pooled sweep is pinned against: width 1 and nil caches, so every cell
// builds its own scenario and engine through Run, with the base setup's
// Seed and Sensor set to the cell's.
func runSweep(pooled bool, setups []scenario.Setup, cells []cell) ([]Result, error) {
	label := func(i int) cellLabels {
		return cellLabels{cells[i].workload, cells[i].controller, cells[i].sensor.String()}
	}
	run := func(caches []*EngineCache, i int) (Result, error) {
		c := &cells[i]
		var res Result
		var err error
		if caches != nil {
			res, err = caches[c.setup].Run(c.pattern, c.family, c.factory, c.sensor, c.seed, c.horizon)
		} else {
			setup := setups[c.setup]
			setup.Seed, setup.Sensor = c.seed, c.sensor
			res, err = Run(Spec{Setup: setup, Pattern: c.pattern, Factory: c.factory, DurationSec: c.horizon})
		}
		if err != nil {
			return Result{}, fmt.Errorf("experiment: %s %s sensor %v seed %d: %w",
				c.workload, c.controller, c.sensor, c.seed, err)
		}
		return res, nil
	}
	if !pooled {
		return runCells(len(cells), 1, nil, label, run)
	}
	shared := make([]*scenario.ArtifactCache, len(setups))
	for i, setup := range setups {
		shared[i] = scenario.NewArtifactCache(setup)
	}
	return runCells(len(cells), poolWidth(), func() []*EngineCache {
		caches := make([]*EngineCache, len(shared))
		for i, a := range shared {
			caches[i] = NewSharedEngineCache(a)
		}
		return caches
	}, label, run)
}
