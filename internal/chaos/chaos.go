// Package chaos is the randomized fault-injection harness of
// DESIGN.md §14: a seeded generator of random-but-valid disruption
// scenarios — area incidents, dark-junction clusters, sensor-outage
// storms, surge stacks, crossed with random grids, controller families
// and observation sensors — plus the drill that runs each scenario
// while asserting the engine's strongest cross-cutting contracts:
// structural invariants at every checkpoint, snapshot/restore
// equivalence (resume bit-for-bit from mid-run checkpoints) and Reset
// replay. The generator is total: every uint64 seed maps to a valid
// scenario, which is what lets FuzzChaosSchedule hand it raw fuzzer
// bytes.
package chaos

import (
	"bytes"
	"fmt"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// Scenario is one generated chaos configuration: a disrupted setup, a
// demand pattern, a controller family and the drill's step plan.
type Scenario struct {
	// Seed is the generator seed the scenario was derived from.
	Seed uint64
	// Setup carries the randomized grid, sensor, demand scale, dispatch
	// mode and the generated disruption schedule.
	Setup scenario.Setup
	// Pattern is the Table II demand shape.
	Pattern scenario.Pattern
	// Controller is the randomly drawn controller family.
	Controller scenario.ControllerSpec
	// MixedLanes enables the head-of-line-blocking extension.
	MixedLanes bool
	// Steps is the drill horizon in mini-slots.
	Steps int
	// CheckAt are the snapshot checkpoints, strictly increasing and
	// inside (0, Steps).
	CheckAt []int
}

// Describe renders a compact one-line summary for soak logs and
// failure messages.
func (sc Scenario) Describe() string {
	events := event.Summarize(sc.Setup.Events)
	if events == "" {
		events = "none"
	}
	return fmt.Sprintf("seed=%d %dx%d pattern=%v controller=%s sensor=%v events=%s steps=%d checkpoints=%v",
		sc.Seed, sc.Setup.Grid.Rows, sc.Setup.Grid.Cols, sc.Pattern, sc.Controller,
		sc.Setup.Sensor, events, sc.Steps, sc.CheckAt)
}

// Generate derives a scenario from a seed. It is total and
// deterministic: every seed yields a valid scenario (grids 2×2..4×4,
// every controller family and sensor kind reachable, disruption
// windows disjoint per target by construction), and the same seed
// always yields the same scenario.
func Generate(seed uint64) (Scenario, error) {
	r := rng.New(seed).Split("chaos")
	setup := scenario.Default()
	setup.Grid.Rows = 2 + r.Intn(3)
	setup.Grid.Cols = 2 + r.Intn(3)
	setup.Seed = seed

	sc := Scenario{
		Seed:    seed,
		Pattern: scenario.Patterns[r.Intn(len(scenario.Patterns))],
		Steps:   160 + r.Intn(120),
	}

	names := scenario.ControllerSpecNames()
	ctl, err := scenario.ParseControllerSpec(names[r.Intn(len(names))])
	if err != nil {
		return Scenario{}, fmt.Errorf("chaos: seed %d controller: %w", seed, err)
	}
	sc.Controller = ctl

	switch r.Intn(3) {
	case 1:
		setup.Sensor = sensing.Loop()
	case 2:
		setup.Sensor = sensing.CV(0.1 + float64(0.9*r.Float64()))
	}
	if r.Bool(0.5) {
		setup.DemandScale = 0.7 + float64(0.8*r.Float64())
	}
	if r.Bool(0.3) {
		setup.Control = signal.ControlPerJunction
	}
	sc.MixedLanes = r.Bool(0.25)

	horizon := float64(sc.Steps)
	g, err := network.Grid(setup.Grid)
	if err != nil {
		return Scenario{}, fmt.Errorf("chaos: seed %d grid: %w", seed, err)
	}

	// Area incidents: sequential time windows keep every road's incident
	// windows disjoint even when two areas hit the same roads.
	cursor := 0.0
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		t0, dur := nextWindow(r, &cursor)
		if t0 >= horizon {
			break
		}
		k := 1 + r.Intn(min(setup.Grid.Rows, setup.Grid.Cols))
		setup, err = setup.WithAreaIncidentAt(
			r.Intn(setup.Grid.Rows), r.Intn(setup.Grid.Cols), k,
			t0, dur, 0.05+float64(0.9*r.Float64()))
		if err != nil {
			return Scenario{}, fmt.Errorf("chaos: seed %d area incident: %w", seed, err)
		}
	}

	// Dark cluster: a clamped 2×2 junction neighborhood, one window per
	// junction (per-target disjoint by construction).
	if r.Bool(0.7) {
		r0, c0 := r.Intn(setup.Grid.Rows), r.Intn(setup.Grid.Cols)
		m := 1 + r.Intn(3)
		for dr := 0; dr <= 1 && m > 0; dr++ {
			for dc := 0; dc <= 1 && m > 0; dc++ {
				row, col := r0+dr, c0+dc
				if row >= setup.Grid.Rows || col >= setup.Grid.Cols {
					continue
				}
				name := g.Network.Node(g.JunctionAt(row, col)).Name
				spec := event.Dark(name, float64(r.Intn(sc.Steps-40)), 10+float64(r.Intn(40)))
				if r.Bool(0.3) {
					spec.GreenSec = 8 + float64(r.Intn(10))
					spec.AmberSec = 2 + float64(r.Intn(3))
					spec.AllRedSec = 2 + float64(r.Intn(6))
				}
				setup.Events = append(setup.Events, spec)
				m--
			}
		}
	}

	// Outage storm: distinct approach roads (each road enters exactly one
	// junction, so one window per road is disjoint by construction).
	var approaches []string
	for i := range g.Network.Nodes {
		j := g.Network.Junction(g.Network.Nodes[i].ID)
		if j == nil {
			continue
		}
		for _, dir := range network.Dirs {
			if rid := j.In[dir]; rid != network.NoRoad {
				approaches = append(approaches, g.Road(rid).Name)
			}
		}
	}
	for _, idx := range r.Perm(len(approaches))[:min(r.Intn(5), len(approaches))] {
		mode := sensing.OutageBlank
		if r.Bool(0.5) {
			mode = sensing.OutageFreeze
		}
		setup.Events = append(setup.Events,
			event.Outage(approaches[idx], float64(r.Intn(sc.Steps-40)), 10+float64(r.Intn(40)), mode))
	}

	// Surge stack: network-wide windows, sequential so the demand
	// multiplier stays a single well-defined value at every step.
	cursor = float64(r.Intn(40))
	for i, n := 0, r.Intn(3); i < n; i++ {
		t0, dur := nextWindow(r, &cursor)
		if t0 >= horizon {
			break
		}
		setup.Events = append(setup.Events, event.Surge(t0, dur, 0.5+float64(1.3*r.Float64())))
	}

	// Two strictly increasing checkpoints in the first three quarters of
	// the horizon, so the resumed tail is never trivial.
	k1 := sc.Steps/4 + r.Intn(sc.Steps/4)
	k2 := k1 + 1 + r.Intn(sc.Steps/4)
	sc.CheckAt = []int{k1, k2}
	sc.Setup = setup
	return sc, nil
}

// nextWindow draws a window after the cursor and advances the cursor
// past it, so consecutive windows from one call site never overlap.
func nextWindow(r *rng.Source, cursor *float64) (t0, dur float64) {
	t0 = *cursor + float64(r.Intn(30))
	dur = 15 + float64(r.Intn(45))
	*cursor = t0 + dur
	return t0, dur
}

// Drill runs the scenario while asserting the engine's cross-cutting
// contracts: CheckInvariants and conservation ordering at every
// checkpoint and at the horizon, snapshot/restore equivalence (resume
// from every checkpoint must rejoin the uninterrupted run bit-for-bit)
// and Reset replay (a reset engine re-runs the whole horizon into the
// same final snapshot).
func Drill(sc Scenario) error {
	factory, err := sc.Setup.Controller(sc.Controller)
	if err != nil {
		return fmt.Errorf("chaos: %s: controller: %w", sc.Describe(), err)
	}
	built, err := sc.Setup.Build(sc.Pattern)
	if err != nil {
		return fmt.Errorf("chaos: %s: build: %w", sc.Describe(), err)
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      factory,
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Sensor:           built.Sensor,
		Control:          built.Setup.Control,
		Events:           built.Events,
		MixedLanes:       sc.MixedLanes,
		ExpectedVehicles: built.ExpectedVehicles(float64(sc.Steps)),
	})
	if err != nil {
		return fmt.Errorf("chaos: %s: engine: %w", sc.Describe(), err)
	}

	check := func(stage string) error {
		if err := engine.CheckInvariants(); err != nil {
			return fmt.Errorf("chaos: %s: invariants at %s: %w", sc.Describe(), stage, err)
		}
		t := engine.Totals()
		if t.Spawned < t.Entered || t.Entered < t.Exited {
			return fmt.Errorf("chaos: %s: conservation at %s: spawned %d < entered %d or entered < exited %d",
				sc.Describe(), stage, t.Spawned, t.Entered, t.Exited)
		}
		return nil
	}

	snaps := make([][]byte, len(sc.CheckAt))
	at := 0
	for i, k := range sc.CheckAt {
		engine.Run(k - at)
		at = k
		if err := check(fmt.Sprintf("step %d", k)); err != nil {
			return err
		}
		snaps[i] = engine.Snapshot()
	}
	engine.Run(sc.Steps - at)
	if err := check("horizon"); err != nil {
		return err
	}
	final := engine.Snapshot()
	finalTotals := engine.Totals()

	for i, k := range sc.CheckAt {
		if err := engine.Restore(snaps[i]); err != nil {
			return fmt.Errorf("chaos: %s: restore at step %d: %w", sc.Describe(), k, err)
		}
		// Arena round-trip: re-serializing the just-restored state must
		// reproduce the checkpoint bytes exactly — this pins the
		// column-major vehicle-arena codec (snapshot v2, DESIGN.md §16)
		// alongside the rest of the state sections.
		if got := engine.Snapshot(); !bytes.Equal(got, snaps[i]) {
			return fmt.Errorf("chaos: %s: snapshot after restore at step %d does not round-trip (%d vs %d bytes)",
				sc.Describe(), k, len(got), len(snaps[i]))
		}
		if err := check(fmt.Sprintf("restore at step %d", k)); err != nil {
			return err
		}
		engine.Run(sc.Steps - k)
		if got := engine.Snapshot(); !bytes.Equal(got, final) {
			return fmt.Errorf("chaos: %s: resume from step %d diverged from the uninterrupted run", sc.Describe(), k)
		}
		if engine.Totals() != finalTotals {
			return fmt.Errorf("chaos: %s: resume from step %d changed totals: %+v vs %+v",
				sc.Describe(), k, engine.Totals(), finalTotals)
		}
	}

	if err := engine.Reset(sc.Setup.Seed); err != nil {
		return fmt.Errorf("chaos: %s: reset: %w", sc.Describe(), err)
	}
	engine.Run(sc.Steps)
	if got := engine.Snapshot(); !bytes.Equal(got, final) {
		return fmt.Errorf("chaos: %s: reset replay diverged from the original run", sc.Describe())
	}
	return nil
}
