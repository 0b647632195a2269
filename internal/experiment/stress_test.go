package experiment

import (
	"math"
	"reflect"
	"testing"

	"utilbp/internal/scenario"
)

// Short horizons keep the stress tests seconds-scale; each area
// incident spans the middle half of the horizon either way.
const stressTestHorizon = 400

// TestStressSweepPooledMatchesSerial pins the stress-study determinism
// contract end to end: the pooled scheduler — one artifact cache per
// (area, demand-scale) pair (each artifact carries its own compiled
// area-incident schedule and scaled demand), per-worker engine caches
// swapping them through ResetWith — must reproduce the serial
// fresh-engine reference bit-for-bit across every
// (family × area × scale × seed) cell.
func TestStressSweepPooledMatchesSerial(t *testing.T) {
	base := scenario.Default()
	areas := []int{0, 2}
	scales := []float64{1, 1.3}
	seeds := []uint64{1, 2}
	pooled, err := StressSweep(base, scenario.PatternII, areas, scales, seeds, stressTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := StressSweepSerial(base, scenario.PatternII, areas, scales, seeds, stressTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatalf("pooled stress sweep diverges from serial reference:\npooled: %+v\nserial: %+v", pooled, serial)
	}
}

// TestStressSweepShape checks the sweep's structure: rows in
// (family, area, scale) order, per-seed slices sized to the seed axis,
// a zero degradation on the undisrupted reference, and an area axis
// that actually bites — closing the whole 3×3 grid must raise the mean
// wait over the intact run at the same demand.
func TestStressSweepShape(t *testing.T) {
	base := scenario.Default()
	areas := []int{0, 3}
	// An overloaded network: the W/4 clamp only binds once queues climb
	// toward it, which Table II demand never does on a short horizon.
	scales := []float64{1.8}
	seeds := []uint64{5, 6}
	rows, err := StressSweep(base, scenario.PatternII, areas, scales, seeds, 900)
	if err != nil {
		t.Fatal(err)
	}
	families := RobustnessFamilies()
	if len(rows) != len(families)*len(areas)*len(scales) {
		t.Fatalf("%d rows, want %d", len(rows), len(families)*len(areas)*len(scales))
	}
	perFamily := len(areas) * len(scales)
	for i, r := range rows {
		if want := families[i/perFamily]; r.Family != want {
			t.Fatalf("row %d: family %s, want %s", i, r.Family, want)
		}
		if want := areas[(i/len(scales))%len(areas)]; r.AreaK != want {
			t.Fatalf("row %d: area %d, want %d", i, r.AreaK, want)
		}
		if want := scales[i%len(scales)]; r.DemandScale != want {
			t.Fatalf("row %d: scale %v, want %v", i, r.DemandScale, want)
		}
		if len(r.MeanWaits) != len(seeds) || len(r.Throughputs) != len(seeds) {
			t.Fatalf("row %d: per-seed slices sized %d/%d, want %d", i, len(r.MeanWaits), len(r.Throughputs), len(seeds))
		}
		if r.AreaK == 0 && r.DegradationPct != 0 {
			t.Fatalf("row %d: undisrupted reference degraded by %v%% against itself", i, r.DegradationPct)
		}
	}
	for fi := range families {
		intact := rows[fi*perFamily]
		worst := rows[fi*perFamily+perFamily-1]
		if worst.Mean <= intact.Mean {
			t.Fatalf("%s: %dx%d area incident did not raise the mean wait (%.2f intact vs %.2f)",
				intact.Family, worst.AreaK, worst.AreaK, intact.Mean, worst.Mean)
		}
	}
}

// TestStressDemandAxisBites pins that the demand-scale axis reaches the
// engine: at the same area size, scaling arrivals 2x past the operating
// point must push more vehicles into the network than the baseline.
func TestStressDemandAxisBites(t *testing.T) {
	base := scenario.Default()
	rows, err := StressSweepSerial(base, scenario.PatternII, []int{0}, []float64{1, 2}, []uint64{3}, stressTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	var baseTh, scaledTh float64
	for _, r := range rows {
		if r.Family != FamilyUtilBP {
			continue
		}
		if r.DemandScale == 1 {
			baseTh = r.MeanThroughput
		} else {
			scaledTh = r.MeanThroughput
		}
	}
	if scaledTh <= baseTh {
		t.Fatalf("2x demand did not raise throughput: %.0f vs %.0f exited", scaledTh, baseTh)
	}
}

// TestStressSweepRejectsBadAxes pins the axis contract: a negative area
// size or a demand scale that is not positive (NaN included) is an
// error on both paths, instead of a row that runs as the intact 1×
// reference under the bad value's label.
func TestStressSweepRejectsBadAxes(t *testing.T) {
	base := scenario.Default()
	for _, c := range []struct {
		name   string
		areas  []int
		scales []float64
	}{
		{"negative area", []int{0, -2}, []float64{1}},
		{"zero scale", []int{0}, []float64{1, 0}},
		{"negative scale", []int{0}, []float64{1, -1}},
		{"NaN scale", []int{0}, []float64{math.NaN()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := StressSweep(base, scenario.PatternII, c.areas, c.scales, []uint64{1}, 60); err == nil {
				t.Fatal("pooled sweep accepted the axes")
			}
			if _, err := StressSweepSerial(base, scenario.PatternII, c.areas, c.scales, []uint64{1}, 60); err == nil {
				t.Fatal("serial sweep accepted the axes")
			}
		})
	}
}
