// Batched-vs-reference serve plane equivalence: the batched serve path
// (dense phase-table rows over the credit slab with idle-junction
// skipping, DESIGN.md §16) must be bit-for-bit indistinguishable from
// the per-junction reference loop kept in serveref_test.go — Run
// against sim.RunServeReference, identical snapshot bytes at random
// mid-run checkpoints (the PR 8 state-hash property: equal states yield
// equal snapshots), identical phase traces, vehicle arenas and totals —
// on every registered workload, across controller families, sensing
// models and disruption schedules.
package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// serveRun is one traced run: the phase trace, the snapshot bytes
// captured at each checkpoint (the final step included), and the
// finished engine.
type serveRun struct {
	trace  []phaseEvent
	snaps  [][]byte
	engine *sim.Engine
}

// runServeTraced builds an engine for the setup/pattern/factory and
// advances it to steps ((*sim.Engine).Run or sim.RunServeReference),
// snapshotting at each checkpoint boundary (checkpoints must be
// ascending, < steps).
func runServeTraced(t *testing.T, setup scenario.Setup, pattern scenario.Pattern, factory signal.Factory, advance func(*sim.Engine, int), steps int, checkpoints []int) serveRun {
	t.Helper()
	built, err := setup.Build(pattern)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: factory,
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
		Sensor:      built.Sensor,
		Control:     setup.Control,
		Events:      built.Events,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := serveRun{engine: engine}
	engine.AddHooks(sim.Hooks{Phase: func(node network.NodeID, step int, phase signal.Phase) {
		out.trace = append(out.trace, phaseEvent{node, step, phase})
	}})
	at := 0
	for _, cp := range checkpoints {
		advance(engine, cp-at)
		at = cp
		out.snaps = append(out.snaps, engine.Snapshot())
	}
	advance(engine, steps-at)
	out.snaps = append(out.snaps, engine.Snapshot())
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchedServeEquivalenceWorkloads pins the batched serve plane to
// the reference loop on every registered workload × controller family ×
// sensing model × disruption config: snapshot bytes at two rng-drawn
// checkpoints plus the final step, and the end-of-run phase trace,
// totals and vehicle arena, all bit-for-bit. The sensed cells exercise
// the wake protocol under sensor-driven observation churn, and the
// incident cells under mid-run capacity events (several workloads —
// city-grid-incident and friends — additionally carry their own
// schedules into the "clean" cells).
func TestBatchedServeEquivalenceWorkloads(t *testing.T) {
	sensors := []struct {
		name string
		spec sensing.Spec
	}{
		{"perfect", sensing.Spec{}},
		{"cv03", sensing.CV(0.3)},
	}
	factories := []struct {
		name string
		mk   func(scenario.Setup) signal.Factory
	}{
		{"UTIL-BP", func(s scenario.Setup) signal.Factory { return s.UtilBP() }},
		{"CAP-BP", func(s scenario.Setup) signal.Factory { return s.CapBP(20) }},
		{"MAXPRESSURE", func(s scenario.Setup) signal.Factory { return s.MaxPressure(0) }},
		{"BP-EST", func(s scenario.Setup) signal.Factory { return s.EstimatedBP(0) }},
	}
	for _, w := range scenario.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			steps := int(w.SweepHorizon(240))
			if steps > 240 {
				steps = 240
			}
			// Two mid-run checkpoints drawn per workload, deterministic
			// but not hand-picked: snapshot-byte equality must hold at
			// arbitrary inter-step points, not just the horizon.
			src := rng.New(0xBA7C_5E61 ^ uint64(len(w.Name))*uint64(steps))
			a, b := 1+src.Intn(steps-1), 1+src.Intn(steps-1)
			if a > b {
				a, b = b, a
			}
			checkpoints := []int{a}
			if b != a {
				checkpoints = append(checkpoints, b)
			}
			for _, sn := range sensors {
				sn := sn
				for _, incident := range []bool{false, true} {
					incident := incident
					if incident && len(w.Setup.Events) > 0 {
						// Incident-carrying workloads (city-grid-incident
						// and friends) replay their own schedule in the
						// clean cell; stacking a second central incident
						// would overlap its windows.
						continue
					}
					for _, f := range factories {
						f := f
						name := f.name + "/" + sn.name
						if incident {
							name += "/incident"
						}
						t.Run(name, func(t *testing.T) {
							setup := w.Setup
							setup.Seed = 11
							setup.Sensor = sn.spec
							if incident {
								var err error
								setup, err = setup.WithCentralIncident(
									float64(steps/4), float64(steps/2), 0.3)
								if err != nil {
									t.Fatal(err)
								}
							}
							ref := runServeTraced(t, setup, w.Pattern, f.mk(setup), sim.RunServeReference, steps, checkpoints)
							bat := runServeTraced(t, setup, w.Pattern, f.mk(setup), (*sim.Engine).Run, steps, checkpoints)
							compareTraces(t, ref.trace, bat.trace)
							for i := range ref.snaps {
								if !bytes.Equal(ref.snaps[i], bat.snaps[i]) {
									t.Fatalf("snapshot bytes diverge at checkpoint %d of %v (lens %d vs %d)",
										i, append(checkpoints, steps), len(ref.snaps[i]), len(bat.snaps[i]))
								}
							}
							if ref.engine.Totals() != bat.engine.Totals() {
								t.Fatalf("totals diverge: reference %+v, batched %+v", ref.engine.Totals(), bat.engine.Totals())
							}
							if !reflect.DeepEqual(ref.engine.Vehicles(), bat.engine.Vehicles()) {
								t.Fatal("vehicle arenas diverge between the serve plane and the reference")
							}
						})
					}
				}
			}
		})
	}
}
