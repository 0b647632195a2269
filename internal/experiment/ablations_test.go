package experiment

import (
	"strings"
	"testing"

	"utilbp/internal/scenario"
)

func TestAblationsShortRun(t *testing.T) {
	setup := quickSetup()
	rows, err := Ablations(setup, scenario.PatternIV, 700)
	if err != nil {
		t.Fatal(err)
	}
	// full + A1..A4 + A6.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if rows[0].Name != "full UTIL-BP" || rows[0].DegradationPct != 0 {
		t.Errorf("first row should be the full algorithm: %+v", rows[0])
	}
	if rows[0].MeanWait <= 0 {
		t.Error("full algorithm has no wait measurement")
	}
	names := map[string]bool{}
	for _, r := range rows {
		if names[r.Name] {
			t.Errorf("duplicate row %q", r.Name)
		}
		names[r.Name] = true
		if r.MeanWait <= 0 {
			t.Errorf("row %q has non-positive wait", r.Name)
		}
	}
	// The load-bearing mechanisms must show positive degradation even at
	// this short horizon.
	for _, key := range []string{"A1 no-W*-shift", "A2 no-keep-phase"} {
		found := false
		for _, r := range rows {
			if r.Name == key {
				found = true
				if r.DegradationPct <= 0 {
					t.Errorf("%s degradation = %.1f%%, want positive", key, r.DegradationPct)
				}
			}
		}
		if !found {
			t.Errorf("row %q missing", key)
		}
	}
	text := FormatAblations(rows)
	if !strings.Contains(text, "full UTIL-BP") || !strings.Contains(text, "A4") {
		t.Errorf("format: %q", text)
	}
}

func TestAblationsDeterministic(t *testing.T) {
	setup := quickSetup()
	a, err := Ablations(setup, scenario.PatternII, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ablations(setup, scenario.PatternII, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ablation run diverged: %+v vs %+v", a[i], b[i])
		}
	}
}

// TestAblationsMatchFreshRuns pins Ablations, whose variants share
// cached UTIL-BP engines, to a fresh Run of each variant's factory.
func TestAblationsMatchFreshRuns(t *testing.T) {
	setup := quickSetup()
	rows, err := Ablations(setup, scenario.PatternII, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range ablationSpecs() {
		fresh, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: spec.factory(setup), DurationSec: 400})
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].MeanWait != fresh.Summary.MeanWait {
			t.Fatalf("%s: mean wait %v != fresh %v", spec.name, rows[i].MeanWait, fresh.Summary.MeanWait)
		}
	}
}
