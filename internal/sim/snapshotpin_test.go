// The v4 snapshot format pinned across commits: the equivalence tests
// compare two snapshots taken by one binary, so a layout change that
// reorders or re-encodes a field consistently on both sides passes
// them. This test hashes the bytes of fixed runs instead, so any
// change to what Snapshot writes shows up as a hash mismatch.
package sim_test

import (
	"hash/fnv"
	"testing"

	"utilbp/internal/core"
	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// TestSnapshotBytesPinned pins the FNV-64a hash of Snapshot() for
// three engine runs and for every controller family and sensor.
//
// The engine runs: the paper grid under Pattern I at step 600 with
// separate turning lanes and with the mixed lane, and
// city-grid-incident at step 100, inside its incident window, whose
// reduced effective capacity the restore derives from the step.
//
// The family runs take the paper grid under Pattern I, seed 1, to step
// 300: each of the eight families under perfect sensing, a loop
// detector that misses 5 % of its events and 30 % connected-vehicle
// penetration; UTIL-BP under the noisy, rate-limited connected-vehicle
// sensor (the per-field path) and behind blank and freeze outage
// windows; and the four gain variants, each of which reads different
// observation fields. The stream carries the fields a sensor writes and
// each collaborator's state, and the run's queues and arena follow
// every decision, so a change to how a family reads or a sensor writes
// an observation shows up here.
//
// A change to the engine that keeps the format must reproduce these
// hashes; one that changes the format bumps snapshotVersion and
// re-records them. No hash depends on the CPU's math path: CI runs
// this test with GODEBUG=cpu.fma=off too.
func TestSnapshotBytesPinned(t *testing.T) {
	city, ok := scenario.WorkloadByName("city-grid-incident")
	if !ok {
		t.Fatal("city-grid-incident is not registered")
	}
	cases := []struct {
		name    string
		setup   scenario.Setup
		pattern scenario.Pattern
		mixed   bool
		steps   int
		want    uint64
	}{
		{"paper-grid/I/separate", scenario.Default(), scenario.PatternI, false, 600, 0xc6fa9c0af6ab60b1},
		{"paper-grid/I/mixed", scenario.Default(), scenario.PatternI, true, 600, 0xf362387c25f90442},
		{"city-grid-incident/100", city.Setup, city.Pattern, false, 100, 0x3179ef8746d734e2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, err := tc.setup.Build(tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: tc.setup.UtilBP(),
				Demand:      built.Demand,
				Router:      built.Router,
				Routes:      built.Routes,
				Sensor:      built.Sensor,
				Events:      built.Events,
				MixedLanes:  tc.mixed,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Run(tc.steps)
			reduced := false
			for i := range built.Grid.Network.Roads {
				r := &built.Grid.Network.Roads[i]
				reduced = reduced || e.EffectiveCapacity(r.ID) != r.Capacity
			}
			if wantReduced := tc.setup.Events != nil; reduced != wantReduced {
				t.Fatalf("a reduced effective capacity at step %d: %v, want %v", tc.steps, reduced, wantReduced)
			}
			if got := snapshotHash(e); got != tc.want {
				t.Fatalf("snapshot hash %#016x, want %#016x", got, tc.want)
			}
		})
	}

	loop := sensing.Spec{Kind: sensing.KindLoop, FailProb: 0.05}
	cv := sensing.CV(0.3)
	noisyCV := sensing.Spec{Kind: sensing.KindConnectedVehicle, Rate: 0.3, NoiseStd: 1, LatencySteps: 3}
	sensors := []struct {
		name string
		spec sensing.Spec
	}{{"perfect", sensing.Spec{}}, {"loop", loop}, {"cv:0.3", cv}}
	// want holds the hash of each family under each of sensors, in
	// that order.
	families := []struct {
		spec string
		want [3]uint64
	}{
		{"util", [3]uint64{0x228a062dacfa76c4, 0x0be3deab0e38f635, 0x87217ba36294e115}},
		{"cap:20", [3]uint64{0x984f5d9dd5be6575, 0xab67d73bbe5324fc, 0xbd2f2f45730c6e94}},
		{"capnorm:20", [3]uint64{0x8ebcdd042c9ccef2, 0xa6be5335279543bc, 0xe74dd14a5d372b26}},
		{"orig:20", [3]uint64{0xe6ba68123e8e60ca, 0x771ae72eebef08a8, 0x3d18f0e2d7a95271}},
		{"fixed:20", [3]uint64{0xb62f9f9e943740c4, 0x15b3f0640cb4f62a, 0x3e83617703499d44}},
		{"maxpressure", [3]uint64{0x4abbcaf2005a5ed6, 0x0b0ecbab9efb1c17, 0x2d2c352fdd247b38}},
		{"gapout", [3]uint64{0x8d395d2aa006b5a8, 0xfd464c74cd8bc47a, 0xe638be87e56d329a}},
		{"bp-est", [3]uint64{0x28054210904cf0ea, 0xa8d4dea9046524f2, 0x3bc0ffe6ee643ec9}},
	}
	for _, f := range families {
		spec, err := scenario.ParseControllerSpec(f.spec)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range sensors {
			t.Run(f.spec+"/"+s.name, func(t *testing.T) {
				setup := scenario.Default()
				setup.Sensor = s.spec
				factory, err := setup.Controller(spec)
				if err != nil {
					t.Fatal(err)
				}
				checkPinnedRun(t, setup, factory, f.want[si])
			})
		}
	}

	variants := []struct {
		name    string
		variant core.GainVariant
		want    uint64
	}{
		{"A1-no-wstar-shift", core.GainVariant{NoWStarShift: true}, 0xa89b9790598b0519},
		{"A3-no-special-cases", core.GainVariant{NoSpecialCases: true}, 0xff0c3dadacc4ecbd},
		{"A4-whole-road-pressure", core.GainVariant{WholeRoadPressure: true}, 0x431159f754cefa77},
		{"count-approaching", core.GainVariant{CountApproaching: true}, 0xd7c44d4606768868},
	}
	for _, v := range variants {
		t.Run("util-variant/"+v.name, func(t *testing.T) {
			setup := scenario.Default()
			// UtilBPVariant takes the detector convention from the
			// setup, so the counting variant is set there.
			setup.CountApproaching = v.variant.CountApproaching
			checkPinnedRun(t, setup, setup.UtilBPVariant(v.variant, false), v.want)
		})
	}

	sensed := []struct {
		name   string
		spec   sensing.Spec
		outage bool
		mode   sensing.OutageMode
		want   uint64
	}{
		{"cv:0.3,noise=1,lat=3", noisyCV, false, 0, 0xbe3deb174c946813},
		{"perfect+blank", sensing.Spec{}, true, sensing.OutageBlank, 0x11ac8af466941c97},
		{"loop+blank", loop, true, sensing.OutageBlank, 0x98211755f7f2b764},
		{"perfect+freeze", sensing.Spec{}, true, sensing.OutageFreeze, 0xa61e1e66c6f6a9f0},
		{"cv:0.3+freeze", cv, true, sensing.OutageFreeze, 0xd395d543d1c15b70},
	}
	for _, s := range sensed {
		t.Run("util/"+s.name, func(t *testing.T) {
			setup := scenario.Default()
			setup.Sensor = s.spec
			if s.outage {
				setup.Events = centralOutage(t, setup, 150, 200, s.mode)
			}
			checkPinnedRun(t, setup, setup.UtilBP(), s.want)
		})
	}
}

// checkPinnedRun runs the setup's Pattern I engine under the factory
// for 300 steps and compares its snapshot hash with want.
func checkPinnedRun(t *testing.T, setup scenario.Setup, factory signal.Factory, want uint64) {
	t.Helper()
	built, err := setup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: factory,
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Events:      built.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotHash(e); got != want {
		t.Fatalf("snapshot hash %#016x, want %#016x", got, want)
	}
}

// centralOutage returns an outage window over every approach of the
// grid's central junction, from t0 for dur seconds.
func centralOutage(t testing.TB, setup scenario.Setup, t0, dur float64, mode sensing.OutageMode) []event.Spec {
	t.Helper()
	g, err := network.Grid(setup.Grid)
	if err != nil {
		t.Fatal(err)
	}
	j := g.Junction(g.JunctionAt(g.Rows()/2, g.Cols()/2))
	var specs []event.Spec
	for _, dir := range network.Dirs {
		if rid := j.In[dir]; rid != network.NoRoad {
			specs = append(specs, event.Outage(g.Road(rid).Name, t0, dur, mode))
		}
	}
	return specs
}

// snapshotHash is the FNV-64a hash of the engine's snapshot.
func snapshotHash(e *sim.Engine) uint64 {
	h := fnv.New64a()
	h.Write(e.Snapshot())
	return h.Sum64()
}
