// Sensing-layer contracts of the engine: the explicit Perfect sensor is
// bit-for-bit equal to the sensor-free fast path, sensors replay
// identically across Reset/ResetWith (the dedicated "sensing" RNG
// stream survives rewinds), installing a sensor never perturbs the
// demand or routing streams, and the sensed step loop stays
// allocation-free. External package: the tests drive the engine through
// the scenario layer like the experiment harness does.
package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// buildSensed builds a Pattern II UTIL-BP engine with the given sensor
// (nil for the perfect fast path), seeded for the run.
func buildSensed(t *testing.T, seed uint64, sensor sensing.Sensor) *sim.Engine {
	t.Helper()
	return buildZoo(t, seed, scenario.Default().UtilBP(), sensor)
}

// TestPerfectSensorMatchesSensorFree pins the acceptance contract: an
// engine with the explicit sensing.Perfect sensor installed (separate
// truth array, per-link copy) reproduces the sensor-free fast path
// (observation aliasing the truth) bit-for-bit.
func TestPerfectSensorMatchesSensorFree(t *testing.T) {
	const steps = 900
	bare := buildSensed(t, 11, nil)
	sensed := buildSensed(t, 11, sensing.Perfect{})
	bare.Run(steps)
	sensed.Run(steps)
	for _, e := range []*sim.Engine{bare, sensed} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if bare.Totals() != sensed.Totals() {
		t.Fatalf("perfect sensor diverged: %+v vs %+v", bare.Totals(), sensed.Totals())
	}
	if !reflect.DeepEqual(bare.Vehicles(), sensed.Vehicles()) {
		t.Fatal("perfect sensor vehicle arena diverges from sensor-free run")
	}
}

// TestSensedResetReplaysIdentically extends the Reset replay contract
// to noisy sensors: a reset engine with a ConnectedVehicle sensor must
// replay bit-for-bit like a freshly built one — the sensing stream is
// re-derived from the run seed exactly as at construction.
func TestSensedResetReplaysIdentically(t *testing.T) {
	const steps = 900
	mkSensor := func() sensing.Sensor {
		return sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.3, NoiseStd: 1})
	}
	engine := buildSensed(t, 13, mkSensor())
	engine.Run(steps)

	for _, seed := range []uint64{13, 14} {
		if err := engine.Reset(seed); err != nil {
			t.Fatal(err)
		}
		engine.Run(steps)
		if err := engine.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := buildSensed(t, seed, mkSensor())
		fresh.Run(steps)
		if engine.Totals() != fresh.Totals() {
			t.Fatalf("seed %d: reset totals %+v != fresh totals %+v", seed, engine.Totals(), fresh.Totals())
		}
		if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
			t.Fatalf("seed %d: sensed reset arena diverges from fresh run", seed)
		}
	}
}

// TestResetWithSwapsSensor checks the sensor leg of the ResetWith
// contract behind sensor sweeps on cached engines: installing a sensor
// on a sensor-free engine, and clearing it again, both match freshly
// built engines bit-for-bit.
func TestResetWithSwapsSensor(t *testing.T) {
	const steps = 900
	engine := buildSensed(t, 17, nil)
	engine.Run(steps)

	// Install a loop detector on the rewound engine.
	if err := engine.ResetWith(18, sim.ResetOptions{
		Sensor: sensing.NewLoopDetector(sensing.LoopDetectorOptions{FailProb: 0.05}),
	}); err != nil {
		t.Fatal(err)
	}
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fresh := buildSensed(t, 18, sensing.NewLoopDetector(sensing.LoopDetectorOptions{FailProb: 0.05}))
	fresh.Run(steps)
	if engine.Totals() != fresh.Totals() {
		t.Fatalf("sensor install: %+v != fresh %+v", engine.Totals(), fresh.Totals())
	}
	if !reflect.DeepEqual(engine.Vehicles(), fresh.Vehicles()) {
		t.Fatal("sensor install: vehicle arena diverges from fresh run")
	}

	// Clear it again: back to the perfect fast path.
	if err := engine.ResetWith(19, sim.ResetOptions{ClearSensor: true}); err != nil {
		t.Fatal(err)
	}
	if engine.Sensor() != nil {
		t.Fatal("ClearSensor left a sensor installed")
	}
	engine.Run(steps)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bare := buildSensed(t, 19, nil)
	bare.Run(steps)
	if engine.Totals() != bare.Totals() {
		t.Fatalf("sensor clear: %+v != fresh %+v", engine.Totals(), bare.Totals())
	}
	if !reflect.DeepEqual(engine.Vehicles(), bare.Vehicles()) {
		t.Fatal("sensor clear: vehicle arena diverges from fresh run")
	}
}

// TestRestoreRejectsSensorParameters pins that a snapshot restores only
// into a sensor that writes what the captured one wrote. The
// fingerprint compares sensor names, and a name carries every option
// that changes the observations, so a snapshot taken under a noisy,
// latent connected-vehicle sensor or a saturating, failing loop
// detector is refused by the default sensor of its kind, and an
// identical sensor restores it.
func TestRestoreRejectsSensorParameters(t *testing.T) {
	for _, tc := range []struct {
		name       string
		from, into sensing.Spec
	}{
		{"cv:0.3,noise=2,lat=5", sensing.Spec{Kind: sensing.KindConnectedVehicle, Rate: 0.3, NoiseStd: 2, LatencySteps: 5}, sensing.CV(0.3)},
		{"loop:10,fail=0.3", sensing.Spec{Kind: sensing.KindLoop, Saturation: 10, FailProb: 0.3}, sensing.Loop()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(spec sensing.Spec) *sim.Engine {
				s, err := spec.New()
				if err != nil {
					t.Fatal(err)
				}
				s.Reseed(5)
				return buildSensed(t, 5, s)
			}
			e := build(tc.from)
			e.Run(200)
			b := e.Snapshot()
			err := build(tc.into).Restore(b)
			if err == nil {
				t.Fatalf("snapshot under %s restored into %v", tc.name, tc.into)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("snapshot sensor %q", tc.name)) {
				t.Fatalf("restore failed for another reason: %v", err)
			}
			if err := build(tc.from).Restore(b); err != nil {
				t.Fatalf("restore into an identical sensor: %v", err)
			}
		})
	}
}

// TestSensingStreamIndependence pins the dedicated-stream contract: a
// noisy sensor changes control decisions but must not perturb the
// demand or routing draws — same seed, same spawn sequence, same routes
// per vehicle.
func TestSensingStreamIndependence(t *testing.T) {
	const steps = 900
	bare := buildSensed(t, 23, nil)
	sensed := buildSensed(t, 23, sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.2, NoiseStd: 2}))
	bare.Run(steps)
	sensed.Run(steps)
	if err := sensed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if bare.Totals().Spawned != sensed.Totals().Spawned {
		t.Fatalf("sensor perturbed the demand stream: %d vs %d spawned",
			bare.Totals().Spawned, sensed.Totals().Spawned)
	}
	bv, sv := bare.Vehicles(), sensed.Vehicles()
	if len(bv) != len(sv) {
		t.Fatalf("vehicle counts diverge: %d vs %d", len(bv), len(sv))
	}
	for i := range bv {
		if bv[i].Route != sv[i].Route || bv[i].SpawnedAt != sv[i].SpawnedAt || bv[i].EntryRoad != sv[i].EntryRoad {
			t.Fatalf("sensor perturbed the route/demand streams at vehicle %d: %+v vs %+v", i, bv[i], sv[i])
		}
	}
}

// TestSensedSteadyStateAllocs extends the zero-allocation steady-state
// contract to sensed engines: once warm, stepping with a LoopDetector
// or ConnectedVehicle sensor installed must not touch the heap either
// (per-link sensor state is pre-sized by Prepare, readings draw from
// the allocation-free rng.Source).
func TestSensedSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sensor sensing.Sensor
	}{
		{"perfect", sensing.Perfect{}},
		{"loop", sensing.NewLoopDetector(sensing.LoopDetectorOptions{FailProb: 0.05})},
		{"cv", sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.3, NoiseStd: 1, LatencySteps: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warmup = 600
			setup := scenario.Default()
			setup.Seed = 7
			built, err := setup.Build(scenario.PatternI)
			if err != nil {
				t.Fatal(err)
			}
			tc.sensor.Reseed(setup.Seed)
			engine, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: setup.UtilBP(),
				Demand:      &sim.CutoffDemand{Inner: built.Demand, CutoffStep: warmup},
				Router:      built.Router,
				Routes:      built.Routes,
				Sensor:      tc.sensor,
			})
			if err != nil {
				t.Fatal(err)
			}
			engine.Run(warmup + 20)
			if engine.Totals().Spawned == 0 {
				t.Fatal("warmup spawned no vehicles")
			}
			allocs := testing.AllocsPerRun(400, func() {
				engine.Run(20)
			})
			if allocs != 0 {
				t.Fatalf("sensed stepOnce allocates: %v allocs per Run(20), want 0", allocs)
			}
			if err := engine.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunTracedMatchesRunSensed pins the substep clock on a sensed
// engine: RunTraced evolves the sensor, arena and totals exactly like
// Run (snapshot bytes included) and attributes time to the substeps
// that do work on a loaded grid.
func TestRunTracedMatchesRunSensed(t *testing.T) {
	const steps = 600
	mkSensor := func() sensing.Sensor {
		return sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.3, NoiseStd: 1})
	}
	plain := buildSensed(t, 29, mkSensor())
	traced := buildSensed(t, 29, mkSensor())
	plain.Run(steps)
	tl := sim.NewTraceLog(steps)
	traced.RunTraced(steps, tl)
	if plain.Totals() != traced.Totals() {
		t.Fatalf("RunTraced diverged from Run: %+v vs %+v", plain.Totals(), traced.Totals())
	}
	if !reflect.DeepEqual(plain.Vehicles(), traced.Vehicles()) {
		t.Fatal("RunTraced vehicle arena diverges from Run")
	}
	if !bytes.Equal(plain.Snapshot(), traced.Snapshot()) {
		t.Fatal("RunTraced snapshot diverges from Run")
	}
	if tl.Steps() != steps {
		t.Fatalf("trace log holds %d steps, want %d", tl.Steps(), steps)
	}
	for s, name := range sim.SubstepNames {
		if name == "events" {
			continue // no schedule armed: the cursor check can read as 0
		}
		var sum time.Duration
		for _, d := range tl.Spans[s] {
			sum += d
		}
		if sum <= 0 {
			t.Fatalf("missing %s attribution: %v over %d steps", name, sum, steps)
		}
	}
}

// perLinkCV senses a step's links one Sense call each, the shape of the
// per-link sensor interface the one-call Sense replaced; it keeps the
// connected-vehicle sensor's state and snapshot.
type perLinkCV struct{ *sensing.ConnectedVehicle }

// Sense forwards each link on its own.
func (p perLinkCV) Sense(links []int32, truth, obs []signal.LinkObs, step int) {
	for i := range links {
		p.ConnectedVehicle.Sense(links[i:i+1], truth, obs, step)
	}
}

// TestSenseOneCallMatchesPerLink pins the engine's one Sense call per
// step to sensing each refreshed link on its own: the same run, the
// same snapshot bytes. UTIL-BP lists the links in the batched control
// plane's change set; CAP-BP runs the per-junction loop, where sense
// lists them for the sensor only and empties the list again.
func TestSenseOneCallMatchesPerLink(t *testing.T) {
	const steps = 900
	setup := scenario.Default()
	for _, tc := range []struct {
		name    string
		factory signal.Factory
		batched bool
		opts    sensing.ConnectedVehicleOptions
	}{
		{"UTIL-BP/cv", setup.UtilBP(), true, sensing.ConnectedVehicleOptions{Rate: 0.3}},
		{"UTIL-BP/cv-latency", setup.UtilBP(), true, sensing.ConnectedVehicleOptions{Rate: 0.3, LatencySteps: 4}},
		{"CAP-BP/cv", setup.CapBP(16), false, sensing.ConnectedVehicleOptions{Rate: 0.3}},
		{"CAP-BP/cv-noise", setup.CapBP(16), false, sensing.ConnectedVehicleOptions{Rate: 0.5, NoiseStd: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one := buildZoo(t, 31, tc.factory, sensing.NewConnectedVehicle(tc.opts))
			each := buildZoo(t, 31, tc.factory, perLinkCV{sensing.NewConnectedVehicle(tc.opts)})
			if one.Batched() != tc.batched || each.Batched() != tc.batched {
				t.Fatalf("batched dispatch %v/%v, want %v", one.Batched(), each.Batched(), tc.batched)
			}
			one.Run(steps)
			each.Run(steps)
			if err := one.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if one.Totals() != each.Totals() {
				t.Fatalf("one call %+v, per link %+v", one.Totals(), each.Totals())
			}
			if !bytes.Equal(one.Snapshot(), each.Snapshot()) {
				t.Fatal("one Sense call per step diverges from one per link")
			}
		})
	}
}
