// Batched-vs-per-junction control plane equivalence: the batched
// dispatch path (signal.BatchController over the dense observation
// slab, DESIGN.md §11) must be bit-for-bit indistinguishable from the
// per-junction Decide loop — same phase traces, same vehicle arenas,
// same totals — on every registered workload, across controller
// families, and across Reset/ResetWith controller-mode switches.
package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// phaseEvent is one Phase-hook firing, the unit of the phase trace.
type phaseEvent struct {
	node  network.NodeID
	step  int
	phase signal.Phase
}

// runTraced builds an engine for the setup/pattern/factory under the
// given dispatch mode, runs it for steps mini-slots recording the full
// phase trace, and returns the trace and the engine.
func runTraced(t *testing.T, setup scenario.Setup, pattern scenario.Pattern, factory signal.Factory, mode signal.ControlMode, steps int) ([]phaseEvent, *sim.Engine) {
	t.Helper()
	setup.Control = mode
	built, err := setup.Build(pattern)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: factory,
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Control:     setup.Control,
		Events:      built.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace []phaseEvent
	engine.AddHooks(sim.Hooks{Phase: func(node network.NodeID, step int, phase signal.Phase) {
		trace = append(trace, phaseEvent{node, step, phase})
	}})
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return trace, engine
}

// compareTraces requires two phase traces to be identical, reporting
// the first divergence.
func compareTraces(t *testing.T, perJunction, batched []phaseEvent) {
	t.Helper()
	if len(perJunction) != len(batched) {
		t.Fatalf("phase trace lengths differ: per-junction %d, batched %d", len(perJunction), len(batched))
	}
	for i := range perJunction {
		if perJunction[i] != batched[i] {
			t.Fatalf("phase trace diverges at event %d: per-junction %+v, batched %+v",
				i, perJunction[i], batched[i])
		}
	}
}

// TestBatchedControlEquivalenceWorkloads pins the batched control plane
// to the per-junction reference on every registered workload — the
// paper grid, the sensed estimated-grid, the 16×16 city grid and the
// rest — across the batch-capable controller zoo: UTIL-BP, MaxPressure
// and BP-EST (dense slabs with change-set caching; BP-EST additionally
// carries per-link estimator state the caching must keep exact) plus
// the fixed-slot CAP-BP baseline (Batched adapter): identical phase
// traces, vehicle arenas and totals.
func TestBatchedControlEquivalenceWorkloads(t *testing.T) {
	for _, w := range scenario.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			setup := w.Setup
			setup.Seed = 11
			steps := int(w.SweepHorizon(300))
			if steps > 300 {
				steps = 300
			}
			factories := []struct {
				name string
				mk   func(scenario.Setup) signal.Factory
			}{
				{"UTIL-BP", func(s scenario.Setup) signal.Factory { return s.UtilBP() }},
				{"CAP-BP", func(s scenario.Setup) signal.Factory { return s.CapBP(20) }},
				{"MAXPRESSURE", func(s scenario.Setup) signal.Factory { return s.MaxPressure(0) }},
				{"BP-EST", func(s scenario.Setup) signal.Factory { return s.EstimatedBP(0) }},
			}
			for _, f := range factories {
				f := f
				t.Run(f.name, func(t *testing.T) {
					pjTrace, pjEngine := runTraced(t, setup, w.Pattern, f.mk(setup), signal.ControlPerJunction, steps)
					if pjEngine.Batched() {
						t.Fatal("per-junction engine reports batched dispatch")
					}
					bTrace, bEngine := runTraced(t, setup, w.Pattern, f.mk(setup), signal.ControlBatched, steps)
					if !bEngine.Batched() {
						t.Fatal("batched engine reports per-junction dispatch")
					}
					compareTraces(t, pjTrace, bTrace)
					if pjEngine.Totals() != bEngine.Totals() {
						t.Fatalf("totals diverge: per-junction %+v, batched %+v", pjEngine.Totals(), bEngine.Totals())
					}
					if !reflect.DeepEqual(pjEngine.Vehicles(), bEngine.Vehicles()) {
						t.Fatal("vehicle arenas diverge between dispatch modes")
					}
				})
			}
		})
	}
}

// TestBatchedControlEquivalenceDrain pins the quiet-junction control
// skip (DESIGN.md §11) where it engages most: the 16×16 city grid with
// its incident, dark junction and surge, demand cut at 600 s and run
// until the grid is empty. TestBatchedControlEquivalenceWorkloads runs
// 300 loaded steps, where few junctions are quiet; here most
// junction-rounds of the tail are. For every family that may skip —
// UTIL-BP, MaxPressure, BP-EST — the batched engine must match the
// per-junction reference: identical phase traces, arenas and totals.
// Its final snapshot bytes must equal those of the same per-junction
// controllers run batched through the signal.Batched adapter, which
// never skips and shares the batched snapshot layout. A restore from a
// mid-drain snapshot, which clears the skip flags, must finish the run
// bit-for-bit like the uninterrupted engine.
func TestBatchedControlEquivalenceDrain(t *testing.T) {
	const cutoff, mid = 600, 1200
	w, ok := scenario.WorkloadByName("city-grid-incident")
	if !ok {
		t.Fatal("city-grid-incident is not registered")
	}
	setup := w.Setup
	setup.Seed = 5
	factories := []struct {
		name string
		mk   func() signal.Factory
	}{
		{"UTIL-BP", func() signal.Factory { return setup.UtilBP() }},
		{"MAXPRESSURE", func() signal.Factory { return setup.MaxPressure(0) }},
		{"BP-EST", func() signal.Factory { return setup.EstimatedBP(0) }},
	}
	for _, f := range factories {
		f := f
		t.Run(f.name, func(t *testing.T) {
			newEngine := func(factory signal.Factory, mode signal.ControlMode) *sim.Engine {
				t.Helper()
				built, err := setup.Build(w.Pattern)
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.New(sim.Config{
					Net:         built.Grid.Network,
					Controllers: factory,
					Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: cutoff},
					Router:      built.Router,
					Routes:      built.Routes,
					Sensor:      built.Sensor,
					Control:     mode,
					Events:      built.Events,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			record := func(e *sim.Engine, trace *[]phaseEvent) {
				e.AddHooks(sim.Hooks{Phase: func(node network.NodeID, step int, phase signal.Phase) {
					*trace = append(*trace, phaseEvent{node, step, phase})
				}})
			}

			// The reference runs until the grid is empty, then 100 more
			// steps of a fully quiet network; the other runs replay its
			// step count.
			ref := newEngine(f.mk(), signal.ControlPerJunction)
			var refTrace []phaseEvent
			record(ref, &refTrace)
			steps := 0
			for ; steps < 6000; steps += 100 {
				tot := ref.Totals()
				if steps > cutoff && tot.Exited == tot.Spawned {
					break
				}
				ref.Run(100)
			}
			if tot := ref.Totals(); tot.Exited != tot.Spawned {
				t.Fatalf("grid not empty after %d steps: %d of %d vehicles exited", steps, tot.Exited, tot.Spawned)
			}
			ref.Run(100)
			steps += 100
			if err := ref.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			batched := newEngine(f.mk(), signal.ControlAuto)
			if !batched.Batched() {
				t.Fatal("batch-capable factory did not engage the batched plane")
			}
			var bTrace []phaseEvent
			record(batched, &bTrace)
			quiet := 0
			var checkpoint []byte
			for k := 0; k < steps; k++ {
				if k == mid {
					checkpoint = batched.Snapshot()
				}
				batched.Run(1)
				quiet += sim.QuietOffered(batched)
			}
			if err := batched.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if quiet == 0 {
				t.Fatal("no junction was offered as quiet during the drain")
			}
			t.Logf("%d steps, %d of %d junction-rounds offered as quiet", steps, quiet, steps*len(ref.Network().Junctions))
			compareTraces(t, refTrace, bTrace)
			if batched.Totals() != ref.Totals() {
				t.Fatalf("totals diverge: per-junction %+v, batched %+v", ref.Totals(), batched.Totals())
			}
			if !reflect.DeepEqual(batched.Vehicles(), ref.Vehicles()) {
				t.Fatal("vehicle arenas diverge between dispatch modes")
			}

			// The same per-junction controllers, batched through the
			// adapter: no skip, same snapshot layout as the batched
			// engine.
			plain := f.mk()
			adapted := newEngine(signal.FactoryFunc{Label: plain.Name(), Build: plain.New}, signal.ControlBatched)
			adapted.Run(steps)
			final := batched.Snapshot()
			if !bytes.Equal(final, adapted.Snapshot()) {
				t.Fatal("final snapshot bytes differ from the adapter-batched run")
			}

			restored := newEngine(f.mk(), signal.ControlAuto)
			if err := restored.Restore(checkpoint); err != nil {
				t.Fatal(err)
			}
			var rTrace []phaseEvent
			record(restored, &rTrace)
			restored.Run(steps - mid)
			if err := restored.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if len(rTrace) == 0 || len(rTrace) > len(bTrace) || rTrace[0].step != mid {
				t.Fatalf("restored run recorded %d phase events, want the uninterrupted run's events from step %d", len(rTrace), mid)
			}
			compareTraces(t, bTrace[len(bTrace)-len(rTrace):], rTrace)
			if !bytes.Equal(final, restored.Snapshot()) {
				t.Fatal("restored run's final snapshot differs from the uninterrupted run")
			}
		})
	}
}

// TestControlModeResetWithSwitch checks the mid-sweep mode switch the
// engine cache relies on: one engine rewound through ResetWith with
// SetControl flipping per-junction → batched → per-junction must replay
// each leg bit-for-bit like a freshly built engine in that mode.
func TestControlModeResetWithSwitch(t *testing.T) {
	const steps = 600
	setup := scenario.Default()
	setup.Seed = 13
	built, err := setup.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Control:     signal.ControlPerJunction,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)

	legs := []struct {
		mode signal.ControlMode
		seed uint64
	}{
		{signal.ControlBatched, 13},
		{signal.ControlPerJunction, 14},
		{signal.ControlBatched, 14},
	}
	for _, leg := range legs {
		if err := engine.ResetWith(leg.seed, sim.ResetOptions{
			Control:    leg.mode,
			SetControl: true,
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := engine.Batched(), leg.mode == signal.ControlBatched; got != want {
			t.Fatalf("mode %v: Batched() = %v, want %v", leg.mode, got, want)
		}
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatalf("mode %v seed %d: %v", leg.mode, leg.seed, err)
		}
		refSetup := setup
		refSetup.Seed = leg.seed
		_, fresh := runTraced(t, refSetup, scenario.PatternII, refSetup.UtilBP(), leg.mode, steps)
		if engine.Totals() != fresh.Totals() {
			t.Fatalf("mode %v seed %d: switched totals %+v != fresh totals %+v",
				leg.mode, leg.seed, engine.Totals(), fresh.Totals())
		}
		if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
			t.Fatalf("mode %v seed %d: switched vehicle arena diverges from fresh run", leg.mode, leg.seed)
		}
	}
}

// TestBatchedSteadyStateAllocs extends the zero-allocation steady-state
// contract to the batched control plane, for every batch-capable family
// in the zoo: with the dense slabs and change set pre-sized at
// construction (BP-EST's per-link estimators included), batched
// stepping must not touch the heap over the full drain window either.
func TestBatchedSteadyStateAllocs(t *testing.T) {
	const warmup = 600
	setup := scenario.Default()
	setup.Seed = 7
	setup.Control = signal.ControlBatched
	factories := []struct {
		name string
		mk   func() signal.Factory
	}{
		{"UTIL-BP", func() signal.Factory { return setup.UtilBP() }},
		{"MAXPRESSURE", func() signal.Factory { return setup.MaxPressure(0) }},
		{"BP-EST", func() signal.Factory { return setup.EstimatedBP(0) }},
	}
	for _, f := range factories {
		f := f
		t.Run(f.name, func(t *testing.T) {
			built, err := setup.Build(scenario.PatternI)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: f.mk(),
				Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: warmup},
				Router:      built.Router,
				Routes:      built.Routes,
				Control:     setup.Control,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !engine.Batched() {
				t.Fatal("engine is not dispatching batched")
			}
			engine.Run(warmup + 20)
			if engine.Totals().Spawned == 0 {
				t.Fatal("warmup spawned no vehicles")
			}
			allocs := testing.AllocsPerRun(400, func() {
				engine.Run(20)
			})
			if allocs != 0 {
				t.Fatalf("batched stepOnce allocates: %v allocs per Run(20), want 0", allocs)
			}
			if err := engine.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestControlModeDispatchSelection pins the dispatch rule of
// DESIGN.md §11: auto mode engages the batched plane exactly when the
// factory implements signal.BatchFactory; per-junction mode never does;
// batched mode always does, adapter-wrapping factories without batch
// support.
func TestControlModeDispatchSelection(t *testing.T) {
	setup := scenario.Default()
	built, err := setup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	// FactoryFunc implements no NewBatch, whatever it wraps.
	plain := signal.FactoryFunc{Label: "UTIL-BP", Build: func(info signal.JunctionInfo) (signal.Controller, error) {
		return setup.UtilBP().New(info)
	}}
	cases := []struct {
		name    string
		factory signal.Factory
		mode    signal.ControlMode
		batched bool
	}{
		{"auto+batch-capable", setup.UtilBP(), signal.ControlAuto, true},
		{"auto+plain", plain, signal.ControlAuto, false},
		{"per-junction+batch-capable", setup.UtilBP(), signal.ControlPerJunction, false},
		{"batched+batch-capable", setup.UtilBP(), signal.ControlBatched, true},
		{"batched+plain(adapter)", plain, signal.ControlBatched, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			engine, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: c.factory,
				Demand:      built.Demand,
				Router:      built.Router,
				Routes:      built.Routes,
				Control:     c.mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if engine.Batched() != c.batched {
				t.Fatalf("Batched() = %v, want %v", engine.Batched(), c.batched)
			}
			engine.Run(50)
			if err := engine.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
