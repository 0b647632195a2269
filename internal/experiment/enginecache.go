package experiment

import (
	"fmt"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// ControllerFamily names a class of controllers whose engines the sweep
// scheduler keeps apart in its per-worker cache. Members of one family
// (e.g. CAP-BP at different control periods) share a cached engine and
// are swapped in via sim.Engine.ResetWith; see DESIGN.md §3.
type ControllerFamily string

// The controller families of the Table III sweep.
const (
	FamilyCapBP  ControllerFamily = "CAP-BP"
	FamilyUtilBP ControllerFamily = "UTIL-BP"
)

// engineKey identifies a cached engine: the network it was built for
// (grid geometry — structurally identical grids share engines) and the
// controller family running on it.
type engineKey struct {
	grid   network.GridSpec
	family ControllerFamily
}

// EngineCache reuses simulation engines and scenario state across sweep
// cells instead of reconstructing them per run. The immutable scenario
// artifacts (network, rate tables, interned route table) come from a
// concurrency-safe scenario.ArtifactCache that may be shared by every
// worker of a sweep — they exist once per process. On top of it the
// cache keeps per-worker mutable state: one scenario.Instance per
// pattern (RNG-backed demand and router) and engines keyed by (network,
// controller family), rewound between cells with sim.Engine.ResetWith,
// which swaps in the cell's controller factory, demand, router and
// route table and replays bit-for-bit identically to a freshly built
// engine (the contract in DESIGN.md §3, pinned by
// TestEngineCacheMatchesFreshRuns).
//
// An EngineCache is NOT safe for concurrent use: each sweep worker owns
// one (sharing only the artifact cache). It is bound to one base Setup —
// instances are cached per pattern, so a cache must never be shared
// across setups. The zero value is not usable; construct with
// NewEngineCache or NewSharedEngineCache.
type EngineCache struct {
	artifacts *scenario.ArtifactCache
	instances map[scenario.Pattern]*scenario.Instance
	engines   map[engineKey]*sim.Engine
}

// NewEngineCache returns an empty cache bound to the given base setup,
// with a private artifact cache. Sweep schedulers that run several
// workers should share one artifact cache via NewSharedEngineCache
// instead.
func NewEngineCache(base scenario.Setup) *EngineCache {
	return NewSharedEngineCache(scenario.NewArtifactCache(base))
}

// NewSharedEngineCache returns an empty per-worker cache drawing its
// immutable scenario artifacts from the given shared cache.
func NewSharedEngineCache(artifacts *scenario.ArtifactCache) *EngineCache {
	return &EngineCache{
		artifacts: artifacts,
		instances: make(map[scenario.Pattern]*scenario.Instance),
		engines:   make(map[engineKey]*sim.Engine),
	}
}

// Run executes one sweep cell — demand pattern, controller, sensor
// spec, seed — on a cached engine, building scenario state and engine
// only on first use. The run seed rewinds demand and routing exactly as
// a fresh base.Build(pattern) with that seed would, and the cell's
// sensor comes from scenario.Artifact.NewSensor like a fresh run's
// (outages included; nil, the sensor-free fast path, for perfect
// observation with none scheduled), so results are bit-for-bit
// identical to experiment.Run of the base setup with that Seed and
// Sensor. One cached engine serves every (sensor × seed) cell of a
// family: the sensor is swapped in, or cleared, through
// sim.ResetOptions, so cells cannot leak sensors into each other.
func (c *EngineCache) Run(pattern scenario.Pattern, family ControllerFamily, factory signal.Factory, sensor sensing.Spec, seed uint64, durationSec float64) (Result, error) {
	if factory == nil {
		return Result{}, fmt.Errorf("experiment: EngineCache.Run requires a factory")
	}
	inst, err := c.instance(pattern)
	if err != nil {
		return Result{}, err
	}
	s, err := inst.NewSensor(sensor, seed)
	if err != nil {
		return Result{}, err
	}
	duration := inst.Duration
	if durationSec > 0 {
		duration = durationSec
	}
	key := engineKey{grid: inst.Grid.Spec, family: family}
	engine, ok := c.engines[key]
	if !ok {
		e, err := sim.New(sim.Config{
			Net:              inst.Grid.Network,
			Controllers:      factory,
			Demand:           inst.Demand,
			Router:           inst.Router,
			Routes:           inst.Routes,
			Sensor:           s,
			Control:          inst.Setup.Control,
			Events:           inst.Events,
			ExpectedVehicles: inst.ExpectedVehicles(duration),
		})
		if err != nil {
			return Result{}, err
		}
		c.engines[key] = e
		engine = e
	}
	// ResetWith swaps the cell's collaborators in even when the engine
	// was built for another pattern of the same grid: road IDs are dense
	// and the builder is deterministic, so structurally identical grids
	// agree on every ID the demand, router and route table use. The
	// sensor and the disruption schedule are swapped the same way, so
	// one engine serves cells with different observation models and
	// event schedules without leaking either across cells.
	if err := engine.ResetWith(seed, sim.ResetOptions{
		Controllers: factory,
		Demand:      inst.Demand,
		Router:      inst.Router,
		Routes:      inst.Routes,
		Sensor:      s,
		ClearSensor: s == nil,
		Events:      inst.Events,
		ClearEvents: inst.Events == nil,
	}); err != nil {
		return Result{}, err
	}
	// The engine may have been built for a shorter horizon than this
	// cell's (the Table III sweep's 4 h mixed pattern after its 1 h
	// ones); reserving here sizes the arena and the link store once
	// instead of growing them by doubling during the run.
	engine.Reserve(inst.ExpectedVehicles(duration))
	engine.RunFor(duration)
	return Finish(engine, factory, pattern, duration)
}

// instance returns the per-worker mutable scenario instance for a
// pattern, building it from the shared artifact on first use.
func (c *EngineCache) instance(pattern scenario.Pattern) (*scenario.Instance, error) {
	if inst, ok := c.instances[pattern]; ok {
		return inst, nil
	}
	art, err := c.artifacts.Get(pattern)
	if err != nil {
		return nil, err
	}
	inst := art.Instantiate()
	c.instances[pattern] = inst
	return inst, nil
}
