// The v3 snapshot format pinned across commits: the equivalence tests
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
// city-grid-incident at step 100, inside its incident window, so the
// stream carries a reduced effective capacity.
//
// The family runs take the paper grid under Pattern I, seed 1, to step
// 300: each of the eight families under perfect sensing, a loop
// detector that misses 5 % of its events and 30 % connected-vehicle
// penetration; UTIL-BP under the noisy, rate-limited connected-vehicle
// sensor (the per-field path) and behind blank and freeze outage
// windows; and the four gain variants, each of which reads different
// observation fields. The stream carries every observation field of
// both slabs and each collaborator's state, so a change to how a
// family reads or a sensor writes an observation shows up here.
//
// A change to the engine that keeps the format must reproduce these
// hashes; one that changes the format bumps snapshotVersion and
// re-records them.
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
		{"paper-grid/I/separate", scenario.Default(), scenario.PatternI, false, 600, 0xcf958030a7ba1fb2},
		{"paper-grid/I/mixed", scenario.Default(), scenario.PatternI, true, 600, 0x96807386952031ce},
		{"city-grid-incident/100", city.Setup, city.Pattern, false, 100, 0xf9ee430d287dbb19},
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
		{"util", [3]uint64{0xd568a30108d8a862, 0xce98c667b821f758, 0xd678856e52e0f34d}},
		{"cap:20", [3]uint64{0x4684809358f46e8c, 0x5ba78a1996d025e3, 0xff388a54aa3e476b}},
		{"capnorm:20", [3]uint64{0xe4cef70f499bed2c, 0x3a43d1e69c3e890d, 0x0cd749da17b5462c}},
		{"orig:20", [3]uint64{0xad33f9977df1a173, 0x9ba73e0a38a0218b, 0xe0befac9d63c71c2}},
		{"fixed:20", [3]uint64{0xa48e09c0b5a4f3f3, 0x7f4478d43629e325, 0x2a6f1fd79815f84d}},
		{"maxpressure", [3]uint64{0xe965f5151dd290cd, 0xdb080d581e9987c0, 0xc12fc41bbcc83f6c}},
		{"gapout", [3]uint64{0x5aa24c92b4189b07, 0x32af7c40478ddff6, 0x09b24626d3c559c9}},
		{"bp-est", [3]uint64{0xe25cfe810378aace, 0x74bdcf945c7d785f, 0x1f49842292410ab0}},
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
		{"A1-no-wstar-shift", core.GainVariant{NoWStarShift: true}, 0x2d23ac130e20a4e7},
		{"A3-no-special-cases", core.GainVariant{NoSpecialCases: true}, 0x1023476d90cbd8d5},
		{"A4-whole-road-pressure", core.GainVariant{WholeRoadPressure: true}, 0x3fbcce2792377c5e},
		{"count-approaching", core.GainVariant{CountApproaching: true}, 0xf231d4c8e2985e3c},
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
		{"cv:0.3,noise=1,lat=3", noisyCV, false, 0, 0xc11d54396bf8e66e},
		{"perfect+blank", sensing.Spec{}, true, sensing.OutageBlank, 0x5cff3cd0172aefc7},
		{"loop+blank", loop, true, sensing.OutageBlank, 0x823d4683ce7e52d2},
		{"perfect+freeze", sensing.Spec{}, true, sensing.OutageFreeze, 0x5ea126bc3a078b7a},
		{"cv:0.3+freeze", cv, true, sensing.OutageFreeze, 0xa44544a9b7865d95},
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
func centralOutage(t *testing.T, setup scenario.Setup, t0, dur float64, mode sensing.OutageMode) []event.Spec {
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
