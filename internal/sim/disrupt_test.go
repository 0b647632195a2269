// Engine behavior under an armed disruption schedule (internal/event,
// DESIGN.md §12): capacity incidents clamp and restore the effective
// capacity, dark-mode takes junctions through all-red into fixed-time
// and hands them back cleanly, and disrupted runs stay bit-for-bit
// deterministic across Reset, ResetWith schedule swaps and both
// controller dispatch modes — with zero heap allocations on the warmed
// stepping path.
package sim_test

import (
	"reflect"
	"testing"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// disruptedSetup returns the paper grid with all four disruption kinds
// armed inside the first 600 s: a 60% capacity incident on the central
// approach (100–300 s), a dark junction at the grid center (350–430 s
// scheduled), a blanked-detector outage on the incident's neighborhood
// and a demand surge riding across the incident window.
func disruptedSetup(t testing.TB, seed uint64) scenario.Setup {
	t.Helper()
	setup := scenario.Default()
	setup.Seed = seed
	out, err := setup.WithCentralIncident(100, 200, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	out.Events = append(out.Events,
		event.Dark("J11", 350, 80),
		event.Outage("J00->J01", 120, 100, sensing.OutageBlank),
		event.Surge(50, 300, 1.4),
	)
	return out
}

// newDisrupted builds a fresh engine for the setup with its schedule
// armed, exactly as experiment.Prepare wires it.
func newDisrupted(t testing.TB, setup scenario.Setup, pattern scenario.Pattern) (*sim.Engine, *scenario.Instance) {
	t.Helper()
	built, err := setup.Build(pattern)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Control:     built.Setup.Control,
		Events:      built.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine, built
}

// compareEngines requires two engines to agree on totals, the vehicle
// arena and every road's occupancy, queue and effective capacity.
func compareEngines(t *testing.T, label string, got, want *sim.Engine) {
	t.Helper()
	if got.Totals() != want.Totals() {
		t.Fatalf("%s: totals %+v != %+v", label, got.Totals(), want.Totals())
	}
	if !reflect.DeepEqual(got.Vehicles(), want.Vehicles()) {
		t.Fatalf("%s: vehicle arenas diverge", label)
	}
	for rid := range want.Network().Roads {
		id := network.RoadID(rid)
		if got.Occupancy(id) != want.Occupancy(id) ||
			got.ApproachQueue(id) != want.ApproachQueue(id) ||
			got.EffectiveCapacity(id) != want.EffectiveCapacity(id) {
			t.Fatalf("%s: road %d diverges (occ %d/%d queue %d/%d effcap %d/%d)", label, rid,
				got.Occupancy(id), want.Occupancy(id),
				got.ApproachQueue(id), want.ApproachQueue(id),
				got.EffectiveCapacity(id), want.EffectiveCapacity(id))
		}
	}
}

// TestDisruptedResetReplaysIdentically extends the Reset contract to
// disrupted runs: the schedule survives Reset (cursor rewound, effective
// capacities and dark state restored) and a replay matches a freshly
// built disrupted engine bit-for-bit, for the original and a new seed.
func TestDisruptedResetReplaysIdentically(t *testing.T) {
	const steps = 600
	engine, _ := newDisrupted(t, disruptedSetup(t, 3), scenario.PatternII)
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for _, seed := range []uint64{3, 4} {
		if err := engine.Reset(seed); err != nil {
			t.Fatal(err)
		}
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh, _ := newDisrupted(t, disruptedSetup(t, seed), scenario.PatternII)
		fresh.Run(steps)
		compareEngines(t, "reset replay", engine, fresh)
	}
}

// TestResetWithSwapsSchedule pins the engine-cache path for disrupted
// cells: a clean engine rewound with a schedule (and the disrupted
// scenario's surged demand) matches a fresh disrupted engine, and
// rewinding back with ClearEvents restores the undisrupted behavior —
// including the effective capacities the incident had clamped.
func TestResetWithSwapsSchedule(t *testing.T) {
	const steps = 500
	clean := scenario.Default()
	clean.Seed = 5
	builtClean, err := clean.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         builtClean.Grid.Network,
		Controllers: clean.UtilBP(),
		Demand:      builtClean.Demand,
		Router:      builtClean.Router,
		Routes:      builtClean.Routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)

	dis := disruptedSetup(t, 5)
	builtDis, err := dis.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.ResetWith(5, sim.ResetOptions{
		Controllers: dis.UtilBP(),
		Demand:      builtDis.Demand,
		Router:      builtDis.Router,
		Routes:      builtDis.Routes,
		Sensor:      builtDis.Sensor,
		Events:      builtDis.Events,
	}); err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	freshDis, _ := newDisrupted(t, disruptedSetup(t, 5), scenario.PatternII)
	freshDis.Run(steps)
	compareEngines(t, "armed via ResetWith", engine, freshDis)

	// Swap the schedule back out; the engine must behave like it never
	// carried one.
	if err := engine.ResetWith(5, sim.ResetOptions{
		Controllers: clean.UtilBP(),
		Demand:      builtClean.Demand,
		Router:      builtClean.Router,
		Routes:      builtClean.Routes,
		ClearSensor: true,
		ClearEvents: true,
	}); err != nil {
		t.Fatal(err)
	}
	if engine.Events() != nil {
		t.Fatal("ClearEvents left a schedule armed")
	}
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	freshClean, err := clean.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.New(sim.Config{
		Net:         freshClean.Grid.Network,
		Controllers: clean.UtilBP(),
		Demand:      freshClean.Demand,
		Router:      freshClean.Router,
		Routes:      freshClean.Routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(steps)
	compareEngines(t, "cleared via ResetWith", engine, ref)
}

// TestDisruptedBatchedMatchesPerJunction extends the control-plane
// equivalence contract to disrupted runs: with incidents, a dark
// junction, a sensor outage and a surge armed, batched dispatch must
// produce the same run as the per-junction loop — the dark-mode
// override lives at the shared actuation point, so both paths must
// degrade and recover identically.
func TestDisruptedBatchedMatchesPerJunction(t *testing.T) {
	const steps = 600
	run := func(mode signal.ControlMode) *sim.Engine {
		setup := disruptedSetup(t, 7)
		setup.Control = mode
		engine, _ := newDisrupted(t, setup, scenario.PatternII)
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return engine
	}
	perJunction := run(signal.ControlPerJunction)
	batched := run(signal.ControlBatched)
	if !batched.Batched() {
		t.Fatal("batched engine did not take the batched dispatch path")
	}
	compareEngines(t, "batched vs per-junction", batched, perJunction)
}

// TestIncidentEffectiveCapacityWindow walks the incident lifecycle on
// the engine: full capacity before onset, the clamped effective
// capacity (rounded, floored at 1) inside the window, and the road's
// immutable capacity restored after the revert transition.
func TestIncidentEffectiveCapacityWindow(t *testing.T) {
	setup := scenario.Default()
	setup.Seed = 2
	setup, err := setup.WithCentralIncident(100, 200, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	engine, built := newDisrupted(t, setup, scenario.PatternII)
	rid := scenario.EastApproach(built.Grid, scenario.TopRight(built.Grid))
	full := built.Grid.Network.Road(rid).Capacity
	reduced := int(0.4*float64(full) + 0.5)
	if reduced < 1 {
		reduced = 1
	}

	engine.Run(100) // steps 0..99: the onset transition is still pending
	if got := engine.EffectiveCapacity(rid); got != full {
		t.Fatalf("before onset: effective capacity %d, want %d", got, full)
	}
	engine.Run(1)
	if got := engine.EffectiveCapacity(rid); got != reduced {
		t.Fatalf("inside window: effective capacity %d, want %d", got, reduced)
	}
	engine.Run(199) // through step 299, the last disrupted mini-slot
	if got := engine.EffectiveCapacity(rid); got != reduced {
		t.Fatalf("end of window: effective capacity %d, want %d", got, reduced)
	}
	engine.Run(1) // step 300 applies the revert
	if got := engine.EffectiveCapacity(rid); got != full {
		t.Fatalf("after revert: effective capacity %d, want %d", got, full)
	}
	engine.Run(300)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDarkModeFixedTimeFallback walks the dark-mode lifecycle at the
// grid center: offline from onset to the policy's release boundary,
// all-red (amber) first, then the fixed-time cycle of the default
// policy, and a clean handback — the junction reports Dark for exactly
// the [onset, release) window and the actuated phase tracks
// signal.DarkPolicy.Phase throughout.
func TestDarkModeFixedTimeFallback(t *testing.T) {
	const onset, end = 350, 430
	setup := scenario.Default()
	setup.Seed = 2
	setup.Events = []event.Spec{event.Dark("J11", onset, end-onset)}
	engine, built := newDisrupted(t, setup, scenario.PatternII)
	node := built.Grid.JunctionAt(1, 1)
	numPhases := built.Grid.Network.Junction(node).NumPhases()
	pol := signal.DarkPolicy{
		AllRedSteps: event.DefaultDarkAllRedSec,
		GreenSteps:  event.DefaultDarkGreenSec,
		AmberSteps:  event.DefaultDarkAmberSec,
	}
	release := pol.ReleaseStep(onset, end)
	if release <= end {
		t.Fatalf("release %d not beyond the scheduled end %d", release, end)
	}

	engine.Run(onset)
	if engine.Dark(node) {
		t.Fatal("dark before onset")
	}
	for step := onset; step < release; step++ {
		engine.Run(1)
		if !engine.Dark(node) {
			t.Fatalf("step %d: junction not dark inside [%d, %d)", step, onset, release)
		}
		want := pol.Phase(step-onset, numPhases)
		if got := engine.CurrentPhase(node); got != want {
			t.Fatalf("step %d: dark phase %v, want %v", step, got, want)
		}
		if step-onset < pol.AllRedSteps && want != signal.Amber {
			t.Fatalf("step %d: expected all-red amber during the first %d steps", step, pol.AllRedSteps)
		}
	}
	engine.Run(1)
	if engine.Dark(node) {
		t.Fatalf("still dark at release step %d", release)
	}
	engine.Run(300)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIncidentRecoveryDrains checks the robustness experiment's premise
// at the engine level: after a severe incident clears, UTIL-BP drains
// the accumulated queues back below their onset level well before the
// horizon (no post-incident blow-up).
func TestIncidentRecoveryDrains(t *testing.T) {
	base := scenario.Default()
	base.Seed = 6
	// Run at a stable operating point so pre-incident queues are in
	// steady state rather than still climbing toward saturation.
	base.DemandScale = 0.6
	setup, err := base.WithCentralIncident(300, 300, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	queued := func(e *sim.Engine) int {
		total := 0
		for rid := range e.Network().Roads {
			total += e.ApproachQueue(network.RoadID(rid))
		}
		return total
	}
	engine, _ := newDisrupted(t, setup, scenario.PatternII)
	engine.Run(300)
	onset := queued(engine)
	engine.Run(300) // disrupted regime
	degraded := queued(engine)
	if degraded <= onset {
		t.Fatalf("incident did not back traffic up: %d queued at clearance, %d at onset", degraded, onset)
	}
	// Recovered means the total queue dips back to its onset level at
	// some point after clearance (the experiment.MeasureRecovery
	// criterion); the instantaneous level keeps fluctuating around the
	// steady state afterwards, so the final sample alone would be noisy.
	low := degraded
	for i := 0; i < 900; i++ {
		engine.Run(1)
		if q := queued(engine); q < low {
			low = q
		}
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if low > onset {
		t.Fatalf("queues did not recover: post-clearance minimum %d, %d at onset", low, onset)
	}
}

// TestDisruptedSteppingAllocs extends the zero-allocation contract to
// disrupted stepping: replaying a warmed horizon with the full
// four-kind schedule armed — transitions applying and reverting inside
// the window — must not touch the heap. Queue reservations stay sized
// to the pre-disruption capacity, the schedule is immutable and its
// cursor is the only mutable state.
func TestDisruptedSteppingAllocs(t *testing.T) {
	const horizon = 900
	setup := disruptedSetup(t, 7)
	built, err := setup.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      setup.UtilBP(),
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Sensor:           built.Sensor,
		Events:           built.Events,
		ExpectedVehicles: built.ExpectedVehicles(horizon),
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(horizon) // grow the link store and arena across the disruption
	if err := engine.Reset(setup.Seed); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun performs one extra warmup call, so the replay stays
	// within the warmed horizon and never exceeds the grown capacity.
	allocs := testing.AllocsPerRun(horizon-1, func() {
		engine.Run(1)
	})
	if allocs != 0 {
		t.Fatalf("disrupted stepping allocates: %v allocs per step, want 0", allocs)
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreBitFlipsDarkWindow flips every bit of the scalar section
// (step, route fallbacks, finalized) and of the junction section (phase
// pairs and credits) of a disrupted engine's snapshot taken at step 380,
// inside J11's dark window, one bit at a time, and restores each
// stream. No flip may panic Restore or the 20 steps after it, and no
// accepted stream may fail the invariants after them. Before the stream
// held state only, the event cursor sat in the scalar section, and its
// bit 63 restored and panicked the next step.
func TestRestoreBitFlipsDarkWindow(t *testing.T) {
	setup := disruptedSetup(t, 3)
	e, _ := newDisrupted(t, setup, scenario.PatternII)
	e.Run(380)
	dark := false
	for _, j := range e.Network().Junctions {
		dark = dark || e.Dark(j.Node)
	}
	if !dark {
		t.Fatal("no junction is dark at step 380")
	}
	b := e.Snapshot()
	var bits []int
	scalars, juncs := sim.SnapshotSections(e)
	for _, span := range [][2]int{scalars, juncs} {
		for bit := 8 * span[0]; bit < 8*span[1]; bit++ {
			bits = append(bits, bit)
		}
	}
	target, _ := newDisrupted(t, setup, scenario.PatternII)
	rejected, accepted := sim.FlipSweep(t, target, 3, b, bits)
	t.Logf("%d bits: %d flips rejected, %d accepted", len(bits), rejected, accepted)
}
