package sim

import (
	"fmt"
	"runtime"
	"testing"

	"utilbp/internal/fixedtime"
	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/signal"
	"utilbp/internal/vehicle"
)

// staticCtrl always returns the same phase.
type staticCtrl struct{ phase signal.Phase }

func (s staticCtrl) Name() string                    { return "static" }
func (s staticCtrl) Decide(*signal.Obs) signal.Phase { return s.phase }

func staticFactory(p signal.Phase) signal.Factory {
	return signal.FactoryFunc{Label: "static", Build: func(signal.JunctionInfo) (signal.Controller, error) {
		return staticCtrl{p}, nil
	}}
}

// fixedRoute interns a single plan into a fresh table and returns the
// router/table pair a Config needs to hand that plan to every vehicle.
func fixedRoute(p vehicle.Plan) (FixedRouter, *vehicle.RouteTable) {
	table := vehicle.NewRouteTable()
	return FixedRouter{R: table.Intern(p)}, table
}

func grid1x1(t *testing.T) *network.GridNetwork {
	t.Helper()
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 1
	spec.Capacity = 30
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func grid1x1Cap(t *testing.T, cap int) *network.GridNetwork {
	t.Helper()
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 1
	spec.Capacity = cap
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := grid1x1(t)
	demand := NewPoissonDemand(rng.New(1), ConstantRate(0.1))
	cases := []Config{
		{Controllers: staticFactory(1), Demand: demand},
		{Net: g.Network, Demand: demand},
		{Net: g.Network, Controllers: staticFactory(1)},
		{Net: g.Network, Controllers: staticFactory(1), Demand: demand, DeltaT: -1},
		// A capacity past the int32 counters and observation fields.
		{Net: grid1x1Cap(t, 1<<31).Network, Controllers: staticFactory(1), Demand: demand},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(Config{Net: g.Network, Controllers: staticFactory(1), Demand: demand}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestStraightFlowExits drives north-side traffic through a single
// junction with the N/S straight+left phase always green: every vehicle
// must eventually exit.
func TestStraightFlowExits(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1), // c1 = N/S straight+left
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(0.2, north)),
		Router:      StraightRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(600)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	if tot.Spawned == 0 {
		t.Fatal("no vehicles spawned")
	}
	// Demand 0.2 veh/s < µ=1, so the junction keeps up: nearly all
	// spawned vehicles that had time to cross must have exited.
	if tot.Exited == 0 {
		t.Fatal("no vehicles exited")
	}
	if tot.Exited < tot.Spawned-20 {
		t.Fatalf("throughput too low: spawned %d exited %d", tot.Spawned, tot.Exited)
	}
	// Straight-through vehicles pass exactly one junction.
	for _, v := range e.Vehicles() {
		if v.Done() && v.Junctions != 1 {
			t.Fatalf("vehicle %d crossed %d junctions, want 1", v.ID, v.Junctions)
		}
	}
}

// TestAmberNeverServes checks that a controller stuck on amber serves no
// vehicle at all.
func TestAmberNeverServes(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(signal.Amber),
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(0.3, north)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	if tot.Served != 0 || tot.Exited != 0 {
		t.Fatalf("amber served vehicles: served=%d exited=%d", tot.Served, tot.Exited)
	}
	// The approach queue must have built up.
	if e.ApproachQueue(north) == 0 {
		t.Fatal("no queue built up under amber")
	}
}

// TestWrongPhaseDoesNotServeCrossTraffic: phase c3 (E/W) never serves the
// north approach.
func TestWrongPhaseStarvesCrossTraffic(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(3), // E/W straight+left
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(0.3, north)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if e.Totals().Exited != 0 {
		t.Fatal("cross traffic served by wrong phase")
	}
}

// TestCapacityBlocking fills a tiny entry road and checks occupancy never
// exceeds capacity while the spawn queue absorbs the overflow.
func TestCapacityBlocking(t *testing.T) {
	g := grid1x1Cap(t, 5)
	north := g.Entries(network.North)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(signal.Amber), // nothing ever served
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(1.0, north)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		e.Run(1)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if occ := e.Occupancy(north); occ > 5 {
			t.Fatalf("occupancy %d exceeds capacity 5", occ)
		}
	}
	if e.SpawnQueueLen(north) == 0 {
		t.Fatal("spawn queue should hold the overflow")
	}
}

// TestOversaturatedEntryAllocs pins the allocation contract on the
// loaded path: a 2×2 grid of capacity 10 fed 2 veh/s on each entry road
// and held in one static phase builds spawn queues far past its road
// capacity, and with the arena reserved for every spawn, at
// construction or through Reserve, steps 2–600 of a fresh engine
// allocate nothing — no queue owns storage to outgrow.
// Step 1 is left out: the demand starts its per-entry streams on first
// use.
//
// runtime.ReadMemStats counts every goroutine's allocations, so one
// stray runtime allocation inside a window would fail a single
// measurement at random (seen under -race). The window is measured on
// three identically reserved engines of each kind, and the test fails
// only when every window allocated: the engine is deterministic, so an
// allocation of its own recurs in all three, and a stray one does not.
func TestOversaturatedEntryAllocs(t *testing.T) {
	const steps, engines = 600, 3
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 2, 2
	spec.Capacity = 10
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	build := func(expected int) *Engine {
		e, err := New(Config{
			Net:              g.Network,
			Controllers:      staticFactory(1),
			Demand:           NewPoissonDemand(rng.New(11), ConstantRate(2)),
			ExpectedVehicles: expected,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	probe := build(0)
	probe.Run(steps)
	longest := 0
	for _, rid := range g.Network.EntryRoads() {
		longest = max(longest, probe.SpawnQueueLen(rid))
	}
	if longest < 100*spec.Capacity {
		t.Fatalf("longest spawn queue holds %d vehicles; the test needs one far past capacity %d", longest, spec.Capacity)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The arena is reserved at construction (Config.ExpectedVehicles)
	// or afterwards (Engine.Reserve, as a pooled engine is).
	kinds := []struct {
		name  string
		build func() *Engine
	}{
		{"ExpectedVehicles", func() *Engine { return build(probe.Totals().Spawned) }},
		{"Reserve", func() *Engine {
			e := build(0)
			e.Reserve(probe.Totals().Spawned)
			return e
		}},
	}
	for _, kind := range kinds {
		var windows []string
		for range engines {
			e := kind.build()
			e.Run(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.Run(steps - 1)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				windows = append(windows, fmt.Sprintf("%d allocations (%d B)", n, after.TotalAlloc-before.TotalAlloc))
			}
			if e.Totals() != probe.Totals() {
				t.Fatalf("%s: reserved engine totals %+v, probe %+v", kind.name, e.Totals(), probe.Totals())
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if len(windows) == engines {
			t.Fatalf("%s: steps 2-%d made %v on %d engines, want 0", kind.name, steps, windows, engines)
		}
	}
}

// TestDownstreamBlocking: with the outgoing road full, service must stop
// even though the phase is green.
func TestDownstreamBlocking(t *testing.T) {
	// 1x2 grid: traffic entering from the west boundary crosses J00 and
	// continues east to J01. Block J01 by keeping it amber; J00's E/W
	// phase is green. The internal road J00->J01 has capacity 4.
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 2
	spec.Capacity = 4
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	j00 := g.JunctionAt(0, 0)
	factory := signal.FactoryFunc{Label: "split", Build: func(info signal.JunctionInfo) (signal.Controller, error) {
		if info.Label == "J00" {
			return staticCtrl{3}, nil // E/W straight+left green
		}
		return staticCtrl{signal.Amber}, nil
	}}
	west := g.Entries(network.West)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: factory,
		Demand:      NewPoissonDemand(rng.New(3), ConstantRate(0.5, west)),
	})
	if err != nil {
		t.Fatal(err)
	}
	internal := g.Junction(j00).Out[network.East]
	for i := 0; i < 400; i++ {
		e.Run(1)
		if occ := e.Occupancy(internal); occ > 4 {
			t.Fatalf("internal road occupancy %d exceeds capacity 4", occ)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.Occupancy(internal) != 4 {
		t.Fatalf("internal road should be saturated, occupancy=%d", e.Occupancy(internal))
	}
	if e.Totals().Exited != 0 {
		t.Fatal("vehicles escaped through an amber junction")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Totals, float64) {
		g := grid1x1(t)
		e, err := New(Config{
			Net:         g.Network,
			Controllers: fixedtime.Factory(fixedtime.Options{GreenSteps: 10, AmberSteps: 4}),
			Demand:      NewPoissonDemand(rng.New(77), ConstantRate(0.15)),
			Router:      StraightRouter{},
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(1200)
		e.FinalizeWaits()
		wait := 0.0
		for _, v := range e.Vehicles() {
			wait += v.QueueWait
		}
		return e.Totals(), wait
	}
	t1, w1 := run()
	t2, w2 := run()
	if t1 != t2 || w1 != w2 {
		t.Fatalf("runs diverged: %+v/%v vs %+v/%v", t1, w1, t2, w2)
	}
}

func TestFixedTimeServesAllApproaches(t *testing.T) {
	g := grid1x1(t)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: fixedtime.Factory(fixedtime.Options{GreenSteps: 15, AmberSteps: 4}),
		Demand:      NewPoissonDemand(rng.New(21), ConstantRate(0.1)),
		Router:      StraightRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2000)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	if tot.Exited < tot.Spawned*3/4 {
		t.Fatalf("throughput too low under light load: spawned %d exited %d", tot.Spawned, tot.Exited)
	}
}

func TestTurningRoutesCrossMultipleJunctions(t *testing.T) {
	// 2x2 grid, vehicle enters from north on column 0 and turns left at
	// the second junction (row 1), heading east, exiting the east side:
	// 3 junctions total... row0-col0, row1-col0 (turn), then row1-col1.
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 2, 2
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 1)
	router, routes := fixedRoute(vehicle.OneTurn(network.Left, 1))
	e, err := New(Config{
		Net:         g.Network,
		Controllers: fixedtime.Factory(fixedtime.Options{GreenSteps: 10, AmberSteps: 2}),
		Demand:      sched,
		Router:      router,
		Routes:      routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(2500)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vs := e.Vehicles()
	if len(vs) != 1 {
		t.Fatalf("vehicles = %d, want 1", len(vs))
	}
	v := vs[0]
	if !v.Done() {
		t.Fatalf("vehicle stuck: %+v", v)
	}
	if v.Junctions != 3 {
		t.Fatalf("vehicle crossed %d junctions, want 3", v.Junctions)
	}
}

func TestFinalizeWaitsCountsQueued(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 3)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(signal.Amber),
		Demand:      sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	e.FinalizeWaits()
	// Travel time on the 300m entry road is ~21.6s; the three vehicles
	// queue afterwards and wait until t=100.
	for _, v := range e.Vehicles() {
		if v.QueueWait <= 0 {
			t.Fatalf("vehicle %d accrued no wait: %+v", v.ID, v)
		}
		if v.QueueWait > 100 {
			t.Fatalf("vehicle %d wait %v exceeds horizon", v.ID, v.QueueWait)
		}
	}
	// Idempotent.
	before := e.Vehicles()[0].QueueWait
	e.FinalizeWaits()
	if e.Vehicles()[0].QueueWait != before {
		t.Fatal("FinalizeWaits not idempotent")
	}
}

func TestHooksFire(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(0.3, north)),
	})
	if err != nil {
		t.Fatal(err)
	}
	phases := 0
	e.AddHooks(Hooks{Phase: func(j network.NodeID, step int, p signal.Phase) { phases++ }})
	e.Run(200)
	if phases != 200 {
		t.Errorf("phase hooks = %d, want 200", phases)
	}
}

func TestInvalidControllerPhaseBecomesAmber(t *testing.T) {
	g := grid1x1(t)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(99),
		Demand:      NewPoissonDemand(rng.New(5), ConstantRate(0.2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	if got := e.CurrentPhase(g.JunctionAt(0, 0)); got != signal.Amber {
		t.Fatalf("invalid phase sanitized to %v, want amber", got)
	}
	if e.Totals().Served != 0 {
		t.Fatal("invalid phase served vehicles")
	}
}

// TestMixedLanesHOLBlocking: in mixed-lane mode a leading left-turner
// blocks a straight-bound follower when only the straight link is green.
func TestMixedLanesHOLBlocking(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 2) // two vehicles, same slot: FIFO order by ID
	table := vehicle.NewRouteTable()
	routes := []vehicle.RouteID{
		table.Intern(vehicle.OneTurn(network.Right, 0)), // head: right turn
		vehicle.StraightRoute,                           // follower: straight
	}
	next := 0
	router := RouteFunc(func(network.RoadID, float64) vehicle.RouteID {
		r := routes[next%len(routes)]
		next++
		return r
	})
	run := func(mixed bool) Totals {
		e, err := New(Config{
			Net:         g.Network,
			Controllers: staticFactory(1), // c1: N/S straight+left — no right link
			Demand:      sched,
			Router:      router,
			Routes:      table,
			MixedLanes:  mixed,
		})
		if err != nil {
			t.Fatal(err)
		}
		next = 0
		e.Run(200)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return e.Totals()
	}
	dedicated := run(false)
	mixed := run(true)
	// Dedicated lanes: the straight vehicle bypasses the right-turner.
	if dedicated.Exited != 1 {
		t.Fatalf("dedicated lanes exited %d, want 1 (the straight vehicle)", dedicated.Exited)
	}
	// Mixed lane: the right-turner at the head blocks the straight one.
	if mixed.Exited != 0 {
		t.Fatalf("mixed lanes exited %d, want 0 (HOL blocking)", mixed.Exited)
	}
}

// TestServiceRateLimitsThroughput: µ=1, one active link -> at most one
// service per second from that lane.
func TestServiceRateLimitsThroughput(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 20)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      sched,
		Router:      StraightRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Travel time 300m @ 13.9 = ~21.6s, so by step 25 everyone queues.
	e.Run(25)
	prevExited := e.Totals().Exited
	for i := 0; i < 10; i++ {
		e.Run(1)
		now := e.Totals().Exited
		if now-prevExited > 1 {
			t.Fatalf("served %d vehicles in one slot with µ=1", now-prevExited)
		}
		prevExited = now
	}
}

func TestCurrentPhaseUnknownJunction(t *testing.T) {
	g := grid1x1(t)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewScheduledDemand(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.CurrentPhase(network.NodeID(999)); got != signal.Amber {
		t.Fatalf("unknown junction phase = %v", got)
	}
}

func TestStateQueriesOutOfRange(t *testing.T) {
	g := grid1x1(t)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewScheduledDemand(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.QueueLen(-1, network.Left) != 0 || e.ApproachQueue(9999) != 0 ||
		e.Occupancy(-3) != 0 || e.SpawnQueueLen(9999) != 0 {
		t.Fatal("out-of-range queries should return 0")
	}
}

func TestRunFor(t *testing.T) {
	g := grid1x1(t)
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewScheduledDemand(),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(60)
	if e.Step() != 60 || e.Time() != 60 {
		t.Fatalf("RunFor(60): step=%d time=%v", e.Step(), e.Time())
	}

	// At Δt = 0.1 the float quotients land a hair off whole steps
	// (0.3/0.1 = 2.9999999999999996); RunFor rounds to the nearest step.
	fine, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewScheduledDemand(),
		DeltaT:      0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range []struct {
		seconds float64
		steps   int
	}{{0.3, 3}, {0.7, 7}, {0.1, 1}, {2.9, 29}, {0.04, 0}, {0.06, 1}, {60, 600}} {
		fine.RunFor(c.seconds)
		total += c.steps
		if fine.Step() != total {
			t.Fatalf("Δt=0.1: RunFor(%v) ran to step %d, want %d", c.seconds, fine.Step(), total)
		}
	}
}
