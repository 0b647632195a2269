package experiment

import (
	"reflect"
	"strings"
	"testing"

	"utilbp/internal/scenario"
)

// Short horizons keep the robustness tests seconds-scale; the incident
// spans the middle half of the horizon either way.
const robustnessTestHorizon = 400

// TestRobustnessSweepPooledMatchesSerial pins the disrupted determinism
// contract end to end: the pooled scheduler — one artifact cache per
// severity (each artifact carries its own compiled schedule), per-worker
// engine caches swapping schedules through ResetWith — must reproduce
// the serial fresh-engine reference bit-for-bit across every
// (family × severity × seed) cell.
func TestRobustnessSweepPooledMatchesSerial(t *testing.T) {
	base := scenario.Default()
	capFracs := []float64{1, 0.5, 0.25}
	seeds := []uint64{1, 2}
	pooled, err := RobustnessSweep(base, scenario.PatternII, capFracs, seeds, robustnessTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := robustnessSweep(base, scenario.PatternII, capFracs, seeds, robustnessTestHorizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, serial) {
		t.Fatalf("pooled robustness sweep diverges from serial reference:\npooled: %+v\nserial: %+v", pooled, serial)
	}
}

// TestRobustnessSweepShape checks the sweep's structure: rows in
// (family, severity) order for both families, per-seed slices sized to
// the seed axis, and a severity axis that actually bites — the
// undisrupted reference must not be the worst row of its family.
func TestRobustnessSweepShape(t *testing.T) {
	base := scenario.Default()
	// The severe point clamps the central approach to ~2 vehicles so the
	// incident visibly bites even on this short horizon.
	capFracs := []float64{1, 0.02}
	seeds := []uint64{5, 6, 7}
	rows, err := RobustnessSweep(base, scenario.PatternII, capFracs, seeds, robustnessTestHorizon)
	if err != nil {
		t.Fatal(err)
	}
	families := RobustnessFamilies()
	if len(rows) != len(families)*len(capFracs) {
		t.Fatalf("%d rows, want %d", len(rows), len(families)*len(capFracs))
	}
	for i, r := range rows {
		if want := families[i/len(capFracs)]; r.Family != want {
			t.Fatalf("row %d: family %s, want %s", i, r.Family, want)
		}
		if want := capFracs[i%len(capFracs)]; r.CapFrac != want {
			t.Fatalf("row %d: capFrac %v, want %v", i, r.CapFrac, want)
		}
		if len(r.MeanWaits) != len(seeds) || len(r.Throughputs) != len(seeds) {
			t.Fatalf("row %d: per-seed slices sized %d/%d, want %d", i, len(r.MeanWaits), len(r.Throughputs), len(seeds))
		}
		if r.CapFrac == 1 && r.DegradationPct != 0 {
			t.Fatalf("row %d: undisrupted reference degraded by %v%% against itself", i, r.DegradationPct)
		}
	}
	for fi := range families {
		intact := rows[fi*len(capFracs)]
		worst := rows[fi*len(capFracs)+len(capFracs)-1]
		if worst.Mean <= intact.Mean {
			t.Fatalf("%s: severe incident did not raise the mean wait (%.2f intact vs %.2f at %.0f%% capacity)",
				intact.Family, intact.Mean, worst.Mean, 100*worst.CapFrac)
		}
	}
	text := FormatRobustnessStats(rows, seeds)
	if lines := strings.Split(strings.TrimSpace(text), "\n"); len(lines) != 2+len(rows) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), 2+len(rows), text)
	}
	for _, want := range []string{"3 seeds", "UTIL-BP", "CAP-BP", "100%", "2%", "+0.0%"} {
		if !strings.Contains(text, want) {
			t.Errorf("table lacks %q:\n%s", want, text)
		}
	}
}

// TestMeasureRecovery runs the recovery metric at a stable operating
// point: queues must blow up past their onset level while degraded and
// drain back within the horizon once the incident clears.
func TestMeasureRecovery(t *testing.T) {
	base := scenario.Default()
	base.Seed = 6
	base.DemandScale = 0.6
	setup, err := base.WithCentralIncident(300, 300, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := MeasureRecovery(Spec{
		Setup:       setup,
		Pattern:     scenario.PatternII,
		Factory:     setup.UtilBP(),
		DurationSec: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.PeakQueued <= rec.OnsetQueued {
		t.Fatalf("incident did not back traffic up: peak %d, onset %d", rec.PeakQueued, rec.OnsetQueued)
	}
	if !rec.Recovered() {
		t.Fatalf("queues did not recover within the horizon: %+v", rec)
	}
}

// TestMeasureRecoveryRequiresIncident pins the error path: a spec whose
// setup carries no incident event cannot be measured.
func TestMeasureRecoveryRequiresIncident(t *testing.T) {
	base := scenario.Default()
	_, err := MeasureRecovery(Spec{
		Setup:       base,
		Pattern:     scenario.PatternII,
		Factory:     base.UtilBP(),
		DurationSec: 100,
	})
	if err == nil {
		t.Fatal("MeasureRecovery accepted a setup without an incident")
	}
}
