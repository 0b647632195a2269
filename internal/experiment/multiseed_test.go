package experiment

import (
	"reflect"
	"strings"
	"testing"

	"utilbp/internal/scenario"
)

func TestTableIIIMultiSeed(t *testing.T) {
	setup := quickSetup()
	seeds := []uint64{1, 2, 3}
	rows, err := TableIIIMultiSeed(setup, []scenario.Pattern{scenario.PatternIV}, []int{18, 30}, 900, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if len(r.Improvements) != 3 {
		t.Fatalf("improvements = %v", r.Improvements)
	}
	if r.Wins < 0 || r.Wins > 3 {
		t.Fatalf("wins = %d", r.Wins)
	}
	if r.Std < 0 {
		t.Fatalf("std = %v", r.Std)
	}
	// Per-seed values must differ (different arrival realizations).
	if r.Improvements[0] == r.Improvements[1] && r.Improvements[1] == r.Improvements[2] {
		t.Error("all seeds produced identical improvements")
	}
	text := FormatSeedStats(rows, seeds)
	if !strings.Contains(text, "IV") || !strings.Contains(text, "3 seeds") {
		t.Errorf("format: %q", text)
	}
}

func TestTableIIIMultiSeedRequiresSeeds(t *testing.T) {
	if _, err := TableIIIMultiSeed(quickSetup(), nil, []int{20}, 300, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if _, err := tableIIIMultiSeed(quickSetup(), nil, []int{20}, 300, nil, false); err == nil {
		t.Fatal("empty seed list accepted by serial path")
	}
}

// TestMultiSeedSchedulerDeterminism pins the worker-pool scheduler to the
// serial reference: same cells, same aggregation order, bit-for-bit
// identical SeedStats (floats compared exactly, not approximately).
func TestMultiSeedSchedulerDeterminism(t *testing.T) {
	setup := quickSetup()
	patterns := []scenario.Pattern{scenario.PatternI, scenario.PatternIV}
	periods := []int{18, 30}
	seeds := []uint64{1, 2, 3}
	parallel, err := TableIIIMultiSeed(setup, patterns, periods, 700, seeds)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tableIIIMultiSeed(setup, patterns, periods, 700, seeds, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Fatalf("pooled scheduler diverges from serial reference:\npooled: %+v\nserial: %+v", parallel, serial)
	}
	// Re-running the pooled path must also be self-deterministic.
	again, err := TableIIIMultiSeed(setup, patterns, periods, 700, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Fatalf("pooled scheduler is not repeatable:\nfirst: %+v\nsecond: %+v", parallel, again)
	}
}

// TestTableIIIMatchesMultiSeedSerial pins TableIII, which runs on
// cached engines, to the fresh-engine serial multi-seed reference on the
// setup's one seed: the same improvement per pattern, exactly.
func TestTableIIIMatchesMultiSeedSerial(t *testing.T) {
	setup := quickSetup()
	patterns := []scenario.Pattern{scenario.PatternI, scenario.PatternIV}
	periods := []int{18, 30}
	rows, err := TableIII(setup, patterns, periods, 700)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tableIIIMultiSeed(setup, patterns, periods, 700, []uint64{setup.Seed}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row.ImprovementPct != serial[i].Improvements[0] {
			t.Fatalf("pattern %v: TableIII improvement %v != serial %v", row.Pattern, row.ImprovementPct, serial[i].Improvements[0])
		}
	}
}

// TestEngineCacheMatchesFreshRuns drives one EngineCache the way a pool
// worker does — cells arriving in arbitrary order, switching controller
// family and pattern mid-stream, revisiting earlier cells — and pins
// every cached result to a freshly built experiment.Run of the same
// cell.
func TestEngineCacheMatchesFreshRuns(t *testing.T) {
	base := quickSetup()
	cache := NewEngineCache(base)
	cells := []struct {
		pattern scenario.Pattern
		family  ControllerFamily
		period  int // 0 = UTIL-BP
		seed    uint64
	}{
		{scenario.PatternI, FamilyCapBP, 18, 1},
		{scenario.PatternI, FamilyUtilBP, 0, 1},  // family switch
		{scenario.PatternIV, FamilyCapBP, 30, 2}, // pattern + family switch
		{scenario.PatternIV, FamilyUtilBP, 0, 2},
		{scenario.PatternI, FamilyCapBP, 18, 1}, // revisit the first cell
		{scenario.PatternI, FamilyCapBP, 30, 3}, // same family, new period + seed
	}
	for i, c := range cells {
		setup := base
		setup.Seed = c.seed
		factory := setup.UtilBP()
		if c.family == FamilyCapBP {
			factory = setup.CapBP(c.period)
		}
		cached, err := cache.Run(c.pattern, c.family, factory, setup.Sensor, c.seed, 700)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		fresh, err := Run(Spec{Setup: setup, Pattern: c.pattern, Factory: factory, DurationSec: 700})
		if err != nil {
			t.Fatalf("cell %d fresh: %v", i, err)
		}
		if cached.Summary != fresh.Summary {
			t.Fatalf("cell %d (%v %s seed %d): cached summary %+v != fresh %+v",
				i, c.pattern, c.family, c.seed, cached.Summary, fresh.Summary)
		}
		if cached.Totals != fresh.Totals {
			t.Fatalf("cell %d: cached totals %+v != fresh %+v", i, cached.Totals, fresh.Totals)
		}
	}
}

// pinPooledVsSerial asserts the engine-reusing pooled scheduler matches
// the fresh-engine serial reference bit-for-bit for one workload.
func pinPooledVsSerial(t *testing.T, w scenario.Workload, horizonSec float64, seeds []uint64) {
	t.Helper()
	patterns := []scenario.Pattern{w.Pattern}
	periods := []int{18, 30}
	pooled, err := TableIIIMultiSeed(w.Setup, patterns, periods, horizonSec, seeds)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tableIIIMultiSeed(w.Setup, patterns, periods, horizonSec, seeds, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatalf("pooled scheduler diverges from serial reference on %s:\npooled: %+v\nserial: %+v",
			w.Name, pooled, serial)
	}
}

// TestMultiSeedWorkloadDeterminism exercises the pooled scheduler beyond
// the paper's 3×3 grid: for every registered workload — city-scale grids
// included — the engine-reusing pool must match the fresh-engine serial
// reference bit-for-bit. Large workloads shorten the horizon via their
// registered SweepHorizonSec so the pin stays test-scale.
func TestMultiSeedWorkloadDeterminism(t *testing.T) {
	for _, w := range scenario.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			horizon := w.SweepHorizon(400)
			if horizon > 400 {
				horizon = 400
			}
			pinPooledVsSerial(t, w, horizon, []uint64{1, 2})
		})
	}
}

// TestCityGridPooledVsSerialPin is the short city-scale pin CI runs on
// its own: the 16×16 city-grid workload through the pooled scheduler
// (shared artifacts, cached engines) against the serial fresh-engine
// reference.
func TestCityGridPooledVsSerialPin(t *testing.T) {
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		t.Fatal("city-grid workload not registered")
	}
	pinPooledVsSerial(t, w, 150, []uint64{1})
}

// TestEngineCacheCityGridWorkload extends the EngineCache contract to
// the city-scale workloads: cached engines on the 16×16 grid must match
// freshly built experiment.Run results exactly, including across a
// family switch and a revisit.
func TestEngineCacheCityGridWorkload(t *testing.T) {
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		t.Fatal("city-grid workload not registered")
	}
	base := w.Setup
	cache := NewEngineCache(base)
	cells := []struct {
		family ControllerFamily
		period int // 0 = UTIL-BP
		seed   uint64
	}{
		{FamilyCapBP, 20, 1},
		{FamilyUtilBP, 0, 1}, // family switch on the cached grid
		{FamilyCapBP, 20, 2}, // revisit with a new seed
	}
	const horizon = 150
	for i, c := range cells {
		setup := base
		setup.Seed = c.seed
		factory := setup.UtilBP()
		if c.family == FamilyCapBP {
			factory = setup.CapBP(c.period)
		}
		cached, err := cache.Run(w.Pattern, c.family, factory, setup.Sensor, c.seed, horizon)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		fresh, err := Run(Spec{Setup: setup, Pattern: w.Pattern, Factory: factory, DurationSec: horizon})
		if err != nil {
			t.Fatalf("cell %d fresh: %v", i, err)
		}
		if cached.Summary != fresh.Summary || cached.Totals != fresh.Totals {
			t.Fatalf("cell %d (%s seed %d): cached %+v/%+v != fresh %+v/%+v",
				i, c.family, c.seed, cached.Summary, cached.Totals, fresh.Summary, fresh.Totals)
		}
	}
}
