package config

import (
	"bytes"
	"strings"
	"testing"

	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Experiment{
		{Pattern: "V", Controller: Controller{Algorithm: "util"}},
		{Pattern: "I", Controller: Controller{Algorithm: "quantum"}},
		{Pattern: "I", Controller: Controller{Algorithm: "cap"}}, // no period
		{Pattern: "I", Controller: Controller{Algorithm: "capnorm"}},
		{Pattern: "I", Controller: Controller{Algorithm: "orig"}},
		{Pattern: "I", Controller: Controller{Algorithm: "fixed"}},
		{Pattern: "I", Controller: Controller{Algorithm: "cap", PeriodSec: -4}},
		{Pattern: "I", Controller: Controller{Algorithm: "util", PeriodSec: -1}},
		{Pattern: "I", Controller: Controller{Algorithm: "cap:0"}},
		{Pattern: "I", Controller: Controller{Algorithm: "maxpressure:x"}},
		{Pattern: "I", Controller: Controller{Algorithm: "util"}, DurationSec: -5},
		{Pattern: "I", Controller: Controller{Algorithm: "util"}, AmberSec: -3},
		{Pattern: "I", Controller: Controller{Algorithm: "util"}, Grid: &Grid{Rows: 0, Cols: 3, SpacingM: 100, SpeedMPS: 10, Capacity: 10, Mu: 1}},
		{Pattern: "I", Controller: Controller{Algorithm: "util"}, Grid: &Grid{Rows: 2, Cols: 2, SpacingM: 100, SpeedMPS: 10, Capacity: 0, Mu: 1}},
		{Pattern: "I", Controller: Controller{Algorithm: "util"}, Grid: &Grid{Rows: 2, Cols: 2, SpacingM: 100, BoundaryM: -50, SpeedMPS: 10, Capacity: 10, Mu: 1}},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, e)
		}
	}
}

// TestValidateAccepts loads every controller family the spec parser
// accepts: period_sec is required only by cap, capnorm, orig and fixed
// when the spec carries no period, and the others ignore it.
func TestValidateAccepts(t *testing.T) {
	good := []struct {
		ctrl Controller
		name string
	}{
		{Controller{Algorithm: "util-bp"}, "UTIL-BP"},
		{Controller{Algorithm: "maxpressure"}, "MAXPRESSURE"},
		{Controller{Algorithm: "maxpressure", PeriodSec: 16}, "MAXPRESSURE"},
		{Controller{Algorithm: "gapout"}, "GAPOUT"},
		{Controller{Algorithm: "bp-est"}, "BP-EST"},
		{Controller{Algorithm: "cap:20"}, "CAP-BP"},
		{Controller{Algorithm: "fixed:16"}, "FIXED"},
		{Controller{Algorithm: "capnorm", PeriodSec: 24}, "CAP-BP-NORM"},
	}
	for _, g := range good {
		e := Experiment{Pattern: "I", Controller: g.ctrl}
		spec, err := e.Spec()
		if err != nil {
			t.Errorf("%+v rejected: %v", g.ctrl, err)
			continue
		}
		if got := spec.Factory.Name(); got != g.name {
			t.Errorf("%+v resolved to %q, want %q", g.ctrl, got, g.name)
		}
	}
}

func TestSetupOverrides(t *testing.T) {
	e := &Experiment{
		Seed:    9,
		Pattern: "III",
		Controller: Controller{
			Algorithm: "cap", PeriodSec: 24,
		},
		AmberSec: 6,
		Alpha:    -0.5,
		Beta:     -3,
		Grid:     &Grid{Rows: 2, Cols: 4, SpacingM: 200, BoundaryM: 150, SpeedMPS: 10, Capacity: 60, Mu: 0.4},
	}
	setup, err := e.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if setup.Seed != 9 || setup.AmberSec != 6 || setup.Alpha != -0.5 || setup.Beta != -3 {
		t.Errorf("setup: %+v", setup)
	}
	if setup.Grid.Rows != 2 || setup.Grid.Cols != 4 || setup.Grid.Mu != 0.4 {
		t.Errorf("grid: %+v", setup.Grid)
	}
	spec, err := e.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Pattern != scenario.PatternIII || spec.Factory.Name() != "CAP-BP" {
		t.Errorf("spec: pattern %v controller %q", spec.Pattern, spec.Factory.Name())
	}
}

func TestSpecRunsEndToEnd(t *testing.T) {
	e := Default()
	e.DurationSec = 300
	spec, err := e.Spec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Spawned == 0 {
		t.Error("config-driven run produced no traffic")
	}
}

func TestRoundTrip(t *testing.T) {
	e := &Experiment{
		Name: "round-trip", Seed: 7, Pattern: "IV",
		Controller:  Controller{Algorithm: "orig", PeriodSec: 18},
		DurationSec: 120,
		MixedLanes:  true,
		Grid:        &Grid{Rows: 1, Cols: 2, SpacingM: 100, BoundaryM: 80, SpeedMPS: 12, Capacity: 40, Mu: 0.5},
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != e.Name || back.Seed != e.Seed || back.Pattern != e.Pattern ||
		back.Controller != e.Controller || back.DurationSec != e.DurationSec ||
		!back.MixedLanes || *back.Grid != *e.Grid {
		t.Errorf("round trip changed config: %+v vs %+v", back, e)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	js := `{"pattern":"I","controller":{"algorithm":"util"},"warp_speed":9}`
	if _, err := Load(strings.NewReader(js)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	js := `{"pattern":"XII","controller":{"algorithm":"util"}}`
	if _, err := Load(strings.NewReader(js)); err == nil {
		t.Fatal("invalid pattern accepted")
	}
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/config.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
