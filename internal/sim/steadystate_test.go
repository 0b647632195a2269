// Steady-state performance contracts of the engine hot path: once the
// working set is warm, stepOnce must not touch the heap, and Engine.Reset
// must replay a run bit-for-bit without re-allocating the engine. The
// tests live in an external package so they can drive the engine through
// the scenario layer like the experiment harness does.
package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sim"
)

// warmEngine builds a Pattern I engine under UTIL-BP whose demand stops
// after warmup steps, then runs it to the edge of the quiet period.
func warmEngine(t testing.TB, warmup int) *sim.Engine {
	t.Helper()
	setup := scenario.Default()
	setup.Seed = 7
	built, err := setup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: warmup},
		Router:      built.Router,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(warmup + 20)
	return engine
}

// TestStepOnceSteadyStateAllocs is the zero-allocation regression gate:
// with the arena and its link store grown during warmup, and no fresh
// arrivals, advancing the simulation must perform zero heap allocations
// — over the FULL drain window, from loaded network through complete
// drain-out to empty stepping. Queues own no storage (they thread
// through the store's link per vehicle), so however the drain reorders
// them, none can outgrow anything.
func TestStepOnceSteadyStateAllocs(t *testing.T) {
	engine := warmEngine(t, 600)
	if engine.Totals().Spawned == 0 {
		t.Fatal("warmup spawned no vehicles")
	}
	occupied := func() int {
		n := 0
		for rid := range engine.Network().Roads {
			n += engine.Occupancy(network.RoadID(rid))
		}
		return n
	}
	if occupied() == 0 {
		t.Fatal("warmup left the network empty; drain window would measure nothing")
	}
	// 400 runs of 20 steps (plus AllocsPerRun's warmup call) cover the
	// entire drain of the quiesced network and a long empty-network tail.
	allocs := testing.AllocsPerRun(400, func() {
		engine.Run(20)
	})
	if allocs != 0 {
		t.Fatalf("full-drain-window stepOnce allocates: %v allocs per Run(20), want 0", allocs)
	}
	if occupied() != 0 {
		t.Fatalf("%d vehicles still in network after the drain window; widen it", occupied())
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCityGridSteadyStateAllocs extends the zero-allocation steady-state
// contract to the 16×16 city-grid workload: once warm, stepping a
// 256-junction network must not touch the heap either.
func TestCityGridSteadyStateAllocs(t *testing.T) {
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		t.Fatal("city-grid workload not registered")
	}
	setup := w.Setup
	setup.Seed = 7
	const warmup = 300
	built, err := setup.Build(w.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: warmup},
		Router:      built.Router,
		Routes:      built.Routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(warmup + 20)
	if engine.Totals().Spawned == 0 {
		t.Fatal("warmup spawned no vehicles")
	}
	allocs := testing.AllocsPerRun(30, func() {
		engine.Run(5)
	})
	if allocs != 0 {
		t.Fatalf("city-grid steady-state stepOnce allocates: %v allocs per Run(5), want 0", allocs)
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// runFresh builds and runs a fresh engine for the seed and returns it.
func runFresh(t *testing.T, seed uint64, steps int) *sim.Engine {
	t.Helper()
	setup := scenario.Default()
	setup.Seed = seed
	built, err := setup.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)
	return engine
}

// TestResetReplaysIdentically checks the Engine.Reset contract: a reset
// engine re-run with a seed must match a freshly constructed engine for
// that seed vehicle-for-vehicle, both for the original seed and for a new
// one.
func TestResetReplaysIdentically(t *testing.T) {
	const steps = 900
	engine := runFresh(t, 3, steps)

	for _, seed := range []uint64{3, 4} {
		if err := engine.Reset(seed); err != nil {
			t.Fatal(err)
		}
		if engine.Step() != 0 || engine.Totals() != (sim.Totals{}) {
			t.Fatalf("reset left state: step=%d totals=%+v", engine.Step(), engine.Totals())
		}
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := runFresh(t, seed, steps)
		if engine.Totals() != fresh.Totals() {
			t.Fatalf("seed %d: reset totals %+v != fresh totals %+v", seed, engine.Totals(), fresh.Totals())
		}
		if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
			t.Fatalf("seed %d: reset vehicle arena diverges from fresh run", seed)
		}
		for rid := range fresh.Network().Roads {
			id := network.RoadID(rid)
			if engine.Occupancy(id) != fresh.Occupancy(id) || engine.ApproachQueue(id) != fresh.ApproachQueue(id) {
				t.Fatalf("seed %d: road %d state diverges (occ %d/%d, queue %d/%d)", seed, rid,
					engine.Occupancy(id), fresh.Occupancy(id), engine.ApproachQueue(id), fresh.ApproachQueue(id))
			}
		}
	}
}

// TestSpawnPathAllocs extends the zero-allocation contract to the spawn
// path: with the vehicle arena pre-sized for the demand horizon
// (Config.ExpectedVehicles) and the working set grown by a warmup run,
// replaying the same seed must not allocate even while arrivals keep
// flowing — route plans are compact values (vehicle.Plan) and the arena
// append stays within its pre-sized capacity. The horizon is the whole
// Pattern I hour, so a Reset replay of a full loaded horizon allocates
// nothing.
func TestSpawnPathAllocs(t *testing.T) {
	const horizon = 3600
	setup := scenario.Default()
	setup.Seed = 7
	built, err := setup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      setup.UtilBP(),
		Demand:           built.Demand,
		Router:           built.Router,
		ExpectedVehicles: built.ExpectedVehicles(horizon),
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(horizon) // grow the link store and arena to the working set
	if engine.Totals().Spawned == 0 {
		t.Fatal("warmup spawned no vehicles")
	}
	if err := engine.Reset(setup.Seed); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun performs one extra warmup call, so the replay covers
	// exactly the warmed horizon and never exceeds the grown capacity.
	allocs := testing.AllocsPerRun(horizon-1, func() {
		engine.Run(1)
	})
	if allocs != 0 {
		t.Fatalf("spawn path allocates: %v allocs per step, want 0", allocs)
	}
	if engine.Totals().Spawned == 0 {
		t.Fatal("measured steps spawned no vehicles")
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResetWithSwapsCollaborators checks the ResetWith contract behind
// the sweep scheduler's engine cache: an engine built for one pattern and
// controller, rewound with another pattern's demand and router and a
// different controller family, must match a freshly built engine for that
// cell bit-for-bit.
func TestResetWithSwapsCollaborators(t *testing.T) {
	const steps = 900
	setup := scenario.Default()
	setup.Seed = 5
	builtII, err := setup.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         builtII.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      builtII.Demand,
		Router:      builtII.Router,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)

	// Swap in Pattern I demand/routes (a separate Built of the same grid
	// spec) and the CAP-BP family, then compare against a fresh engine.
	swapSetup := scenario.Default()
	swapSetup.Seed = 9
	builtI, err := swapSetup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.ResetWith(9, sim.ResetOptions{
		Controllers: swapSetup.CapBP(20),
		Demand:      builtI.Demand,
		Router:      builtI.Router,
	}); err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	freshBuilt, err := swapSetup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.New(sim.Config{
		Net:         freshBuilt.Grid.Network,
		Controllers: swapSetup.CapBP(20),
		Demand:      freshBuilt.Demand,
		Router:      freshBuilt.Router,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run(steps)
	if engine.Totals() != fresh.Totals() {
		t.Fatalf("ResetWith totals %+v != fresh totals %+v", engine.Totals(), fresh.Totals())
	}
	if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
		t.Fatal("ResetWith vehicle arena diverges from fresh run")
	}
}

// TestNewAllocsCityGrid bounds what constructing a city-grid engine
// allocates: the queues of its 1 000-odd roads — lanes, spawn queues
// and transit lists — reserve nothing, so a sweep that builds an engine
// per cell pays no allocation per road. It measures 3 640 allocations;
// the bound keeps the 37 % margin it had over the 3 648 of the engine
// that still copied every link's observation.
func TestNewAllocsCityGrid(t *testing.T) {
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		t.Fatal("city-grid is not registered")
	}
	built, err := w.Setup.Build(w.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Net:         built.Grid.Network,
		Controllers: w.Setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Events:      built.Events,
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sim.New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sim.New on city-grid: %.0f allocations", allocs)
	if allocs > 4990 {
		t.Fatalf("sim.New on city-grid made %.0f allocations, want at most 4990", allocs)
	}
}

// TestNewBytesCityGrid bounds the bytes constructing a city-grid engine
// allocates, its arena reserved for the hour's expected vehicles as the
// benchmark driver reserves it: no queue owns storage — every lane,
// spawn queue and transit list threads through one 16-byte link per
// expected vehicle — so what remains is that link store, the arena and
// the control plane, 3.24 MiB. The bound sits 8.6 % above it, below
// the 3.62 MiB that the 0.38 MiB of per-link observation storage (a
// 64-byte observation per link and its refresh sites) would bring
// back. Under the race detector the same construction allocates
// 3.84 MiB, so a race build is held to its own bound with the same
// margin. With lanes reserved at road capacity it was 9.6 MiB, and
// 5.6 MiB with the travel heaps reserved there.
func TestNewBytesCityGrid(t *testing.T) {
	const horizon = 3600
	limit := uint64(3604 << 10) // 3.52 MiB
	if raceEnabled {
		limit = 4270 << 10 // 4.17 MiB
	}
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		t.Fatal("city-grid is not registered")
	}
	built, err := w.Setup.Build(w.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Net:              built.Grid.Network,
		Controllers:      w.Setup.UtilBP(),
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Sensor:           built.Sensor,
		Events:           built.Events,
		ExpectedVehicles: built.ExpectedVehicles(horizon),
	}
	if _, err := sim.New(cfg); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.New(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("sim.New on city-grid: %.2f MiB in %d allocations", float64(bytes)/(1<<20), after.Mallocs-before.Mallocs)
	if bytes > limit {
		t.Fatalf("sim.New on city-grid allocated %.2f MiB, want at most %.2f MiB", float64(bytes)/(1<<20), float64(limit)/(1<<20))
	}
}
