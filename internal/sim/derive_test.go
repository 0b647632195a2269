// The derive contract (DESIGN.md §3, §14): a snapshot holds state only,
// and New, Reset and Restore rebuild everything else in one place. A
// restored engine must therefore hold every derived value the
// uninterrupted engine holds, and a derived value corrupted before the
// snapshot must leave no trace after the restore.
package sim_test

import (
	"bytes"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/sim"
)

// deriveCase is one engine of the derive tests, run to step k.
type deriveCase struct {
	name  string
	build func(t *testing.T) *sim.Engine
	k     int
}

// deriveCases returns the engines the derive tests restore: the paper
// grid with separate and with mixed lanes, city-grid-incident inside its
// incident window, the disrupted setup inside its dark window, and
// engines sensed by a loop detector, by 30 % connected vehicles and
// through a blank outage window.
func deriveCases() []deriveCase {
	paper := func(mixed bool) func(t *testing.T) *sim.Engine {
		return func(t *testing.T) *sim.Engine {
			return deriveEngine(t, scenario.Default(), scenario.PatternI, mixed)
		}
	}
	sensed := func(spec sensing.Spec, outage bool) func(t *testing.T) *sim.Engine {
		return func(t *testing.T) *sim.Engine {
			setup := scenario.Default()
			setup.Sensor = spec
			if outage {
				setup.Events = centralOutage(t, setup, 150, 200, sensing.OutageBlank)
			}
			return deriveEngine(t, setup, scenario.PatternI, false)
		}
	}
	return []deriveCase{
		{"paper-grid/separate", paper(false), 600},
		{"paper-grid/mixed", paper(true), 600},
		{"city-grid-incident", func(t *testing.T) *sim.Engine {
			w, ok := scenario.WorkloadByName("city-grid-incident")
			if !ok {
				t.Fatal("city-grid-incident is not registered")
			}
			return deriveEngine(t, w.Setup, w.Pattern, false)
		}, 100},
		{"disrupted/dark", func(t *testing.T) *sim.Engine {
			e, _ := newDisrupted(t, disruptedSetup(t, 3), scenario.PatternII)
			return e
		}, 380},
		{"loop", sensed(sensing.Loop(), false), 300},
		{"cv:0.3", sensed(sensing.CV(0.3), false), 300},
		{"outage", sensed(sensing.Spec{}, true), 250},
	}
}

// deriveEngine builds the setup's UTIL-BP engine with its sensor and
// schedule, with separate turning lanes or the mixed lane.
func deriveEngine(t *testing.T, setup scenario.Setup, pattern scenario.Pattern, mixed bool) *sim.Engine {
	t.Helper()
	built, err := setup.Build(pattern)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Events:      built.Events,
		MixedLanes:  mixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDirtySetCoversChangedRows steps each derive engine through its
// first 400 steps, its incident, dark and outage windows included, and
// requires every road row a step changed after its sense to belong to a
// road in the dirty set (sim.StepCheckingDirty). The engine keeps no
// copy of the rows it could check this against, so CheckInvariants
// cannot: controllers and sensors read the rows themselves, and sense
// lists only the links of dirty roads.
func TestDirtySetCoversChangedRows(t *testing.T) {
	for _, tc := range deriveCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.build(t)
			for range 400 {
				if err := sim.StepCheckingDirty(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreDerivesState restores a mid-run snapshot of each engine
// into a fresh one and requires every derived value to equal the
// uninterrupted engine's, at the restore and again 50 steps on.
//
// Its corrupt/ subtests then corrupt one derived value of a mid-run
// engine in memory and snapshot it. The snapshot must equal the
// uncorrupted engine's byte for byte, the restored engine must hold the
// uncorrupted derived values, and it must run 300 steps with no panic
// and no invariant failure. Before the stream held state only, each
// corruption was written and restored: the moved transit count failed
// the invariants 52 steps on, cursor -1 panicked with index -1, the
// zero dark policy with an integer divide by zero, and the stream with
// any of the other five was refused.
func TestRestoreDerivesState(t *testing.T) {
	cases := map[string]deriveCase{}
	for _, tc := range deriveCases() {
		cases[tc.name] = tc
		t.Run(tc.name, func(t *testing.T) {
			want := tc.build(t)
			want.Run(tc.k)
			got := tc.build(t)
			if err := got.Restore(want.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if err := sim.DiffDerived(got, want); err != nil {
				t.Fatalf("restored at step %d: %v", tc.k, err)
			}
			got.Run(50)
			want.Run(50)
			if err := sim.DiffDerived(got, want); err != nil {
				t.Fatalf("50 steps after the restore: %v", err)
			}
			if !bytes.Equal(got.Snapshot(), want.Snapshot()) {
				t.Fatal("50 steps after the restore the snapshots differ")
			}
		})
	}
	for _, tc := range []struct {
		corruption, engine string
	}{
		{"transit-moved", "paper-grid/separate"},
		{"cursor", "disrupted/dark"},
		{"dark-zero-policy", "disrupted/dark"},
		{"occupancy", "paper-grid/separate"},
		{"occupancy-above-capacity", "paper-grid/separate"},
		{"effective-capacity", "paper-grid/separate"},
		{"zero-effective-capacity", "paper-grid/separate"},
		{"mixed-movement-count", "paper-grid/mixed"},
	} {
		t.Run("corrupt/"+tc.corruption, func(t *testing.T) {
			c := cases[tc.engine]
			e := c.build(t)
			e.Run(c.k)
			intact := e.Snapshot()
			want := c.build(t)
			if err := want.Restore(intact); err != nil {
				t.Fatal(err)
			}
			if err := sim.CorruptDerived(e, tc.corruption); err != nil {
				t.Fatal(err)
			}
			b := e.Snapshot()
			if !bytes.Equal(b, intact) {
				t.Fatal("the corrupted derived value reached the snapshot")
			}
			got := c.build(t)
			if err := got.Restore(b); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if err := sim.DiffDerived(got, want); err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= 300; step++ {
				got.Run(1)
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("%d steps after the restore: %v", step, err)
				}
			}
		})
	}
}
