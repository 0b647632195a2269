// Engine-level contracts of the controller zoo (DESIGN.md §13): the
// estimator state of BP-EST and the phase timers of the actuated
// gap-out controller live in the controllers, and the engine rebuilds
// controllers on every Reset/ResetWith — so a rewound engine must
// replay bit-for-bit like a freshly built one, with no estimator or
// timer state leaking across the rewind. External package: the tests
// drive the engine through the scenario layer like the harness does.
package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// buildZoo builds a Pattern II engine with the given controller factory
// and optional sensor.
func buildZoo(t *testing.T, seed uint64, factory signal.Factory, sensor sensing.Sensor) *sim.Engine {
	t.Helper()
	setup := scenario.Default()
	setup.Seed = seed
	built, err := setup.Build(scenario.PatternII)
	if err != nil {
		t.Fatal(err)
	}
	if sensor != nil {
		sensor.Reseed(seed)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: factory,
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      sensor,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// TestEstimatedBPResetReplay pins that BP-EST's turn-ratio estimator
// state survives the Reset replay contract bit-for-bit: rewinding an
// engine mid-convergence and re-running must match a freshly built
// engine exactly, on the same seed and on a different one, with and
// without a noisy sensor in front of the estimator.
func TestEstimatedBPResetReplay(t *testing.T) {
	const steps = 900
	setup := scenario.Default()
	for _, tc := range []struct {
		name     string
		mkSensor func() sensing.Sensor
	}{
		{"perfect", func() sensing.Sensor { return nil }},
		{"cv", func() sensing.Sensor {
			return sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.3, NoiseStd: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := buildZoo(t, 31, setup.EstimatedBP(0.05), tc.mkSensor())
			engine.Run(steps)
			for _, seed := range []uint64{31, 32} {
				if err := engine.Reset(seed); err != nil {
					t.Fatal(err)
				}
				engine.Run(steps)
				if err := engine.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				fresh := buildZoo(t, seed, setup.EstimatedBP(0.05), tc.mkSensor())
				fresh.Run(steps)
				if engine.Totals() != fresh.Totals() {
					t.Fatalf("seed %d: reset totals %+v != fresh totals %+v", seed, engine.Totals(), fresh.Totals())
				}
				if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
					t.Fatalf("seed %d: estimator state leaked across Reset — arena diverges from fresh run", seed)
				}
			}
		})
	}
}

// TestGapOutTimerResetAcrossResetWith pins that the actuated
// controller's internal timers (green start, last demand, amber until)
// reset across both Reset and a ResetWith controller swap: a rewound
// engine matches a fresh one, and swapping gap-out in on a rewound
// UTIL-BP engine matches an engine built with gap-out from scratch.
func TestGapOutTimerResetAcrossResetWith(t *testing.T) {
	const steps = 900
	setup := scenario.Default()
	gap := func() signal.Factory { return setup.GapOut(8, 40, 3) }

	// Reset leg: mid-cycle timers must not survive the rewind.
	engine := buildZoo(t, 37, gap(), nil)
	engine.Run(steps)
	for _, seed := range []uint64{37, 38} {
		if err := engine.Reset(seed); err != nil {
			t.Fatal(err)
		}
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := buildZoo(t, seed, gap(), nil)
		fresh.Run(steps)
		if engine.Totals() != fresh.Totals() {
			t.Fatalf("seed %d: reset totals %+v != fresh totals %+v", seed, engine.Totals(), fresh.Totals())
		}
		if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
			t.Fatalf("seed %d: gap-out timers leaked across Reset — arena diverges from fresh run", seed)
		}
	}

	// ResetWith leg: swap gap-out onto a rewound UTIL-BP engine.
	swapped := buildZoo(t, 41, setup.UtilBP(), nil)
	swapped.Run(steps)
	if err := swapped.ResetWith(42, sim.ResetOptions{Controllers: gap()}); err != nil {
		t.Fatal(err)
	}
	swapped.Run(steps)
	if err := swapped.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fresh := buildZoo(t, 42, gap(), nil)
	fresh.Run(steps)
	if swapped.Totals() != fresh.Totals() {
		t.Fatalf("controller swap: %+v != fresh %+v", swapped.Totals(), fresh.Totals())
	}
	if !reflect.DeepEqual(swapped.Vehicles(), fresh.Vehicles()) {
		t.Fatal("controller swap: vehicle arena diverges from fresh gap-out run")
	}
}

// TestRestoreRejectsControllerParameters pins the controller entry of
// the snapshot fingerprint: a snapshot restores only into controllers
// built with the same parameters, not just the same family. Each case
// snapshots a Pattern II engine after 300 steps and restores it into an
// engine whose factory differs in one parameter that changes decisions
// (restored, a CAP-BP(20 s) run went on as CAP-BP(40 s) and exited 749
// instead of 709 vehicles 300 s later), then into an identical one.
func TestRestoreRejectsControllerParameters(t *testing.T) {
	setup := scenario.Default()
	other := scenario.Default()
	other.Alpha, other.Beta = -3, -5
	for _, tc := range []struct {
		name string
		// from builds the snapshot's factory (twice: the second build
		// is the identical target), into the differing one.
		from func() signal.Factory
		into signal.Factory
	}{
		{"cap-period", func() signal.Factory { return setup.CapBP(20) }, setup.CapBP(40)},
		{"util-alpha-beta", setup.UtilBP, other.UtilBP()},
		{"fixed-green", func() signal.Factory { return setup.FixedTime(20) }, setup.FixedTime(25)},
		{"gapout-timers", func() signal.Factory { return setup.GapOut(0, 0, 0) }, setup.GapOut(8, 40, 5)},
		{"maxpressure-min-green", func() signal.Factory { return setup.MaxPressure(0) }, setup.MaxPressure(15)},
		{"bp-est-alpha", func() signal.Factory { return setup.EstimatedBP(0) }, setup.EstimatedBP(0.1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := buildZoo(t, 5, tc.from(), nil)
			e.Run(300)
			b := e.Snapshot()
			err := buildZoo(t, 5, tc.into, nil).Restore(b)
			if err == nil {
				t.Fatal("snapshot restored into a factory with other parameters")
			}
			if !strings.Contains(err.Error(), "snapshot controller") {
				t.Fatalf("restore failed for another reason: %v", err)
			}
			if err := buildZoo(t, 5, tc.from(), nil).Restore(b); err != nil {
				t.Fatalf("restore into an identical factory: %v", err)
			}
		})
	}
}
