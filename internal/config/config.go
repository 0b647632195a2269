// Package config provides JSON-serializable experiment descriptions, so
// runs can be captured, shared and replayed from files instead of flag
// soup. A config fully determines a run: network geometry, demand
// pattern, controller, horizon and seed.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"utilbp/internal/cli"
	"utilbp/internal/experiment"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
)

// Grid mirrors network.GridSpec with JSON tags and unit-suffixed names.
type Grid struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	SpacingM  float64 `json:"spacing_m"`
	BoundaryM float64 `json:"boundary_m"`
	SpeedMPS  float64 `json:"speed_mps"`
	Capacity  int     `json:"capacity"`
	Mu        float64 `json:"mu_veh_per_s"`
}

// Controller selects the signal-control algorithm.
type Controller struct {
	// Algorithm is a controller spec in the scenario.ParseControllerSpec
	// syntax: util, cap[:period], capnorm[:period], orig[:period],
	// fixed[:green], maxpressure[:minGreen], gapout[:min,max,gap] or
	// bp-est[:alpha].
	Algorithm string `json:"algorithm"`
	// PeriodSec is the control phase period of cap, capnorm and orig and
	// the green time of fixed, required by those four when Algorithm
	// carries no period and overridden when it does; the other families
	// ignore it.
	PeriodSec int `json:"period_sec,omitempty"`
}

// Experiment is one fully-specified simulation run.
type Experiment struct {
	// Name labels the run in reports.
	Name string `json:"name,omitempty"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// Pattern is a Table II pattern name: I, II, III, IV or mixed.
	Pattern    string     `json:"pattern"`
	Controller Controller `json:"controller"`
	// DurationSec overrides the pattern's default horizon when > 0.
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Grid overrides the paper's 3x3 geometry when non-zero.
	Grid *Grid `json:"grid,omitempty"`
	// AmberSec is the transition-phase duration (0 = paper's 4 s).
	AmberSec int `json:"amber_sec,omitempty"`
	// Alpha and Beta override eq. (8)'s special-case gains (0 = paper
	// defaults -1/-2).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// MixedLanes enables the head-of-line-blocking extension.
	MixedLanes bool `json:"mixed_lanes,omitempty"`
	// StartupLostSec overrides startup lost time (0 = default 2 s,
	// negative disables).
	StartupLostSec int `json:"startup_lost_sec,omitempty"`
	// CountApproaching widens the detector model (DESIGN.md A6).
	CountApproaching bool `json:"count_approaching,omitempty"`
}

// Default returns the paper's Pattern II / UTIL-BP run.
func Default() *Experiment {
	return &Experiment{
		Name:       "pattern-II-utilbp",
		Seed:       1,
		Pattern:    "II",
		Controller: Controller{Algorithm: "util"},
	}
}

// Validate checks the config without building anything heavyweight.
func (e *Experiment) Validate() error {
	if _, err := cli.ParsePattern(e.Pattern); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	spec, err := scenario.ParseControllerSpec(e.Controller.Algorithm)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if e.Controller.PeriodSec < 0 {
		return fmt.Errorf("config: period_sec must be non-negative, got %d", e.Controller.PeriodSec)
	}
	if spec.PeriodSec == 0 && e.Controller.PeriodSec == 0 && cli.TakesPeriod(spec.Kind) {
		return fmt.Errorf("config: controller %q requires period_sec > 0", e.Controller.Algorithm)
	}
	if e.DurationSec < 0 {
		return fmt.Errorf("config: duration_sec must be non-negative")
	}
	if e.AmberSec < 0 {
		return fmt.Errorf("config: amber_sec must be non-negative (0 = the paper's 4 s), got %d", e.AmberSec)
	}
	if e.Grid != nil {
		if e.Grid.Rows < 1 || e.Grid.Cols < 1 {
			return fmt.Errorf("config: grid must have at least 1x1 junctions")
		}
		if e.Grid.Capacity <= 0 || e.Grid.Mu <= 0 || e.Grid.SpacingM <= 0 || e.Grid.SpeedMPS <= 0 {
			return fmt.Errorf("config: grid capacity, mu, spacing and speed must be positive")
		}
		if e.Grid.BoundaryM < 0 {
			return fmt.Errorf("config: grid boundary_m must be non-negative (0 = the spacing), got %v", e.Grid.BoundaryM)
		}
	}
	return nil
}

// Setup materializes the scenario setup described by the config.
func (e *Experiment) Setup() (scenario.Setup, error) {
	if err := e.Validate(); err != nil {
		return scenario.Setup{}, err
	}
	setup := scenario.Default()
	setup.Seed = e.Seed
	if e.AmberSec > 0 {
		setup.AmberSec = e.AmberSec
	}
	if e.Alpha != 0 {
		setup.Alpha = e.Alpha
	}
	if e.Beta != 0 {
		setup.Beta = e.Beta
	}
	setup.CountApproaching = e.CountApproaching
	if e.Grid != nil {
		setup.Grid = network.GridSpec{
			Rows:           e.Grid.Rows,
			Cols:           e.Grid.Cols,
			Spacing:        e.Grid.SpacingM,
			BoundaryLength: e.Grid.BoundaryM,
			Speed:          e.Grid.SpeedMPS,
			Capacity:       e.Grid.Capacity,
			Mu:             e.Grid.Mu,
		}
	}
	return setup, nil
}

// Spec materializes the full run specification.
func (e *Experiment) Spec() (experiment.Spec, error) {
	setup, err := e.Setup()
	if err != nil {
		return experiment.Spec{}, err
	}
	pattern, err := cli.ParsePattern(e.Pattern)
	if err != nil {
		return experiment.Spec{}, err
	}
	factory, err := cli.PickFactory(setup, e.Controller.Algorithm, e.Controller.PeriodSec)
	if err != nil {
		return experiment.Spec{}, err
	}
	return experiment.Spec{
		Setup:            setup,
		Pattern:          pattern,
		Factory:          factory,
		DurationSec:      e.DurationSec,
		MixedLanes:       e.MixedLanes,
		StartupLostSteps: e.StartupLostSec,
	}, nil
}

// Load reads a config from JSON. Unknown fields are rejected so typos in
// hand-written files fail loudly.
func Load(r io.Reader) (*Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("config: decode: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// LoadFile reads a config from a file path.
func LoadFile(path string) (*Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Save writes the config as indented JSON.
func (e *Experiment) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	return nil
}
