// Tests for the engine's defense against controllers returning phases a
// junction does not have. The contract (see signal.Phase) is 1-indexed:
// valid control phases are 1..len(Phases), with len(Phases) itself the
// last valid phase; Amber (0) keeps every link inactive; anything outside
// that range is coerced to Amber and never actuated.
package sim_test

import (
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// scriptedController replays a fixed phase, whatever the observation.
type scriptedController struct{ phase signal.Phase }

func (c *scriptedController) Name() string                    { return "scripted" }
func (c *scriptedController) Decide(*signal.Obs) signal.Phase { return c.phase }

func TestControlCoercesOutOfRangePhases(t *testing.T) {
	grid, err := network.Grid(network.DefaultGridSpec())
	if err != nil {
		t.Fatal(err)
	}
	junction := grid.JunctionAt(0, 0)
	numPhases := len(grid.Junction(junction).Phases)
	if numPhases < 2 {
		t.Fatalf("test junction has %d phases, need >= 2", numPhases)
	}

	cases := []struct {
		name string
		ret  signal.Phase
		want signal.Phase
	}{
		{"negative", signal.Phase(-3), signal.Amber},
		{"amber", signal.Amber, signal.Amber},
		{"first", 1, 1},
		// The 1-indexing contract: phase == len(Phases) names the last
		// phase and must be actuated, not coerced.
		{"last", signal.Phase(numPhases), signal.Phase(numPhases)},
		{"one-past-last", signal.Phase(numPhases + 1), signal.Amber},
		{"far-out", signal.Phase(1000), signal.Amber},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			router, routes := scenario.NewGridRouter(grid, nil, nil)
			engine, err := sim.New(sim.Config{
				Net: grid.Network,
				Controllers: signal.FactoryFunc{
					Label: "scripted",
					Build: func(signal.JunctionInfo) (signal.Controller, error) {
						return &scriptedController{phase: tc.ret}, nil
					},
				},
				Demand: sim.NewScheduledDemand(),
				Router: router,
				Routes: routes,
			})
			if err != nil {
				t.Fatal(err)
			}
			engine.Run(3)
			if got := engine.CurrentPhase(junction); got != tc.want {
				t.Fatalf("controller returned %d: CurrentPhase = %v, want %v", int(tc.ret), got, tc.want)
			}
			if err := engine.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreRejectsOutOfRangePhases extends the phase contract to the
// snapshot boundary: a stream whose junction phase lies outside
// [Amber, NumPhases] must fail Restore. Restoring it cleanly would let
// the next decision round index per-phase tables with it, which panics
// under UTIL-BP and BP-EST.
func TestRestoreRejectsOutOfRangePhases(t *testing.T) {
	setup := scenario.Default()
	last := signal.Phase(len(buildZoo(t, 5, setup.UtilBP(), nil).Network().Junctions[0].Phases))
	cases := []struct {
		name          string
		current, prev signal.Phase
	}{
		{"current-far-out", 99, 1},
		{"current-negative", -3, 1},
		{"current-one-past-last", last + 1, 1},
		{"prev-far-out", 1, 99},
		{"prev-negative", 1, -3},
	}
	for _, f := range []signal.Factory{setup.UtilBP(), setup.EstimatedBP(0)} {
		for _, c := range cases {
			t.Run(f.Name()+"/"+c.name, func(t *testing.T) {
				src := buildZoo(t, 5, f, nil)
				src.Run(60)
				sim.SetJunctionPhases(src, 0, c.current, c.prev)
				if err := buildZoo(t, 5, f, nil).Restore(src.Snapshot()); err == nil {
					t.Fatalf("Restore accepted junction phases current=%d prev=%d (valid: %d..%d)",
						c.current, c.prev, signal.Amber, last)
				}
			})
		}
	}
}
