package experiment

import (
	"reflect"
	"testing"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// sweepScale keeps sensing-sweep tests minutes-free: a short horizon
// still exercises warm queues and every sensor model.
const sensingTestHorizon = 400

// outageSetup returns the paper's 3×3 setup with a blank sensor outage
// on the top-right junction's west approach from 40 s to 240 s.
func outageSetup(t *testing.T) scenario.Setup {
	t.Helper()
	setup := scenario.Default()
	g, err := network.Grid(setup.Grid)
	if err != nil {
		t.Fatal(err)
	}
	west := g.Junction(scenario.TopRight(g)).In[network.West]
	setup.Events = []event.Spec{event.Outage(g.Road(west).Name, 40, 200, sensing.OutageBlank)}
	return setup
}

// TestSensingSweepPooledMatchesSerial pins the sensing determinism
// contract: the pooled scheduler — shared artifacts, per-worker engine
// caches, per-cell sensor swaps through ResetWith — must reproduce the
// serial fresh-engine reference bit-for-bit, sensor state included.
// The outage case schedules a sensor outage on the base setup, which
// must wrap every cell's sensor, perfect included, on both paths.
func TestSensingSweepPooledMatchesSerial(t *testing.T) {
	specs := []sensing.Spec{
		{},
		sensing.Loop(),
		{Kind: sensing.KindLoop, Saturation: 30, FailProb: 0.05},
		sensing.CV(0.5),
		{Kind: sensing.KindConnectedVehicle, Rate: 0.2, NoiseStd: 1.5, LatencySteps: 3},
	}
	seeds := []uint64{1, 2}
	for _, c := range []struct {
		name string
		base scenario.Setup
	}{
		{"intact", scenario.Default()},
		{"outage", outageSetup(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			pooled, err := SensingSweep(c.base, scenario.PatternII, specs, seeds, sensingTestHorizon)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := SensingSweepSerial(c.base, scenario.PatternII, specs, seeds, sensingTestHorizon)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pooled, serial) {
				t.Fatalf("pooled sensing sweep diverges from serial reference:\npooled: %+v\nserial: %+v", pooled, serial)
			}
		})
	}
}

// TestPenetrationSweepReproducible pins the acceptance criterion: the
// connected-vehicle penetration sweep on the paper grid is a pure
// function of its seeds — two invocations agree exactly, and per-seed
// waits differ across seeds (the sweep actually exercises them).
func TestPenetrationSweepReproducible(t *testing.T) {
	base := scenario.Default()
	rates := []float64{0.1, 0.5, 1.0}
	seeds := []uint64{3, 4}
	first, err := PenetrationSweep(base, scenario.PatternII, rates, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	second, err := PenetrationSweep(base, scenario.PatternII, rates, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("penetration sweep is not reproducible:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if len(first) != len(rates)+1 {
		t.Fatalf("rows = %d, want %d (perfect + rates)", len(first), len(rates)+1)
	}
	if !first[0].Spec.Perfect() {
		t.Fatalf("first row should be the perfect reference, got %v", first[0].Spec)
	}
	if first[0].DegradationPct != 0 {
		t.Fatalf("perfect reference degradation = %v, want 0", first[0].DegradationPct)
	}
	for _, row := range first {
		if len(row.MeanWaits) != len(seeds) {
			t.Fatalf("row %v has %d waits, want %d", row.Spec, len(row.MeanWaits), len(seeds))
		}
		if row.Mean <= 0 {
			t.Fatalf("row %v mean wait %v", row.Spec, row.Mean)
		}
	}
	if first[0].MeanWaits[0] == first[0].MeanWaits[1] {
		t.Fatal("different seeds produced identical waits; the seed axis is dead")
	}
}

// TestSensingSweepSensorMatters checks the sweep measures something: a
// heavily degraded sensor (tiny penetration, loud noise, long latency)
// must not report exactly the perfect reference on every seed.
func TestSensingSweepSensorMatters(t *testing.T) {
	base := scenario.Default()
	specs := []sensing.Spec{
		{},
		{Kind: sensing.KindConnectedVehicle, Rate: 0.05, NoiseStd: 4, LatencySteps: 10},
	}
	seeds := []uint64{5}
	rows, err := SensingSweep(base, scenario.PatternII, specs, seeds, sensingTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Mean == rows[1].Mean {
		t.Fatalf("degraded sensor indistinguishable from perfect: %+v", rows)
	}
}

// TestSensingSweepValidatesSpecs rejects malformed axes up front.
func TestSensingSweepValidatesSpecs(t *testing.T) {
	base := scenario.Default()
	if _, err := SensingSweep(base, scenario.PatternII, []sensing.Spec{sensing.CV(2)}, []uint64{1}, 60); err == nil {
		t.Fatal("invalid penetration rate accepted")
	}
	if _, err := SensingSweep(base, scenario.PatternII, nil, []uint64{1}, 60); err == nil {
		t.Fatal("empty spec axis accepted")
	}
	if _, err := SensingSweep(base, scenario.PatternII, []sensing.Spec{{}}, nil, 60); err == nil {
		t.Fatal("empty seed axis accepted")
	}
}

// TestEngineCacheRunSensorIsolation pins the sensor swap of
// EngineCache.Run against fresh runs: a sensing cell cannot leak its
// sensor into a later perfect cell on the same cached engine, and with a
// sensor outage scheduled every cell, perfect included, observes through
// the outage on the cached engine exactly as on a fresh one.
func TestEngineCacheRunSensorIsolation(t *testing.T) {
	for _, c := range []struct {
		name string
		base scenario.Setup
	}{
		{"intact", scenario.Default()},
		{"outage", outageSetup(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			cache := NewEngineCache(c.base)
			for _, cell := range []struct {
				sensor sensing.Spec
				seed   uint64
			}{
				{sensing.CV(0.3), 7},
				{sensing.Spec{}, 7},
				{sensing.CV(0.5), 8},
			} {
				setup := c.base
				setup.Seed, setup.Sensor = cell.seed, cell.sensor
				factory := setup.UtilBP()
				cached, err := cache.Run(scenario.PatternII, FamilyUtilBP, factory, cell.sensor, cell.seed, sensingTestHorizon)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: factory, DurationSec: sensingTestHorizon})
				if err != nil {
					t.Fatal(err)
				}
				if cached.Summary != fresh.Summary || cached.Totals != fresh.Totals {
					t.Fatalf("%v seed %d: cached run diverges from fresh:\ncached: %+v %+v\nfresh:  %+v %+v",
						cell.sensor, cell.seed, cached.Summary, cached.Totals, fresh.Summary, fresh.Totals)
				}
			}
		})
	}
}
