package stats

import (
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// rotCtrl rotates phases every green slots with amber slots between.
type rotCtrl struct{ green, amber, phases int }

func (r rotCtrl) Name() string { return "rot" }
func (r rotCtrl) Decide(obs *signal.Obs) signal.Phase {
	seg := r.green + r.amber
	pos := obs.Step % (seg * r.phases)
	if pos%seg < r.green {
		return signal.Phase(pos/seg + 1)
	}
	return signal.Amber
}

func testEngine(t *testing.T) (*sim.Engine, *network.GridNetwork) {
	t.Helper()
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 1
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Net: g.Network,
		Controllers: signal.FactoryFunc{Label: "rot", Build: func(info signal.JunctionInfo) (signal.Controller, error) {
			return rotCtrl{green: 5, amber: 2, phases: info.NumPhases()}, nil
		}},
		Demand: sim.NewPoissonDemand(rng.New(3), sim.ConstantRate(0.3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func TestPhaseRecorderAndAnalyze(t *testing.T) {
	e, g := testEngine(t)
	rec := NewPhaseRecorder(g.JunctionAt(0, 0))
	e.AddHooks(rec.Hooks())
	e.Run(28) // exactly one full cycle of 4 phases x (5 green + 2 amber)
	if len(rec.Phases) != 28 {
		t.Fatalf("recorded %d phases, want 28", len(rec.Phases))
	}
	st := rec.Analyze()
	if st.AmberSlots != 8 {
		t.Errorf("amber slots = %d, want 8", st.AmberSlots)
	}
	for p := signal.Phase(1); p <= 4; p++ {
		if st.GreenSlots[p] != 5 {
			t.Errorf("green[%v] = %d, want 5", p, st.GreenSlots[p])
		}
	}
	// 4 green runs of length 5.
	if st.MeanGreenRun != 5 || st.MaxGreenRun != 5 {
		t.Errorf("green runs: mean %v max %d", st.MeanGreenRun, st.MaxGreenRun)
	}
	// green->amber->green... : 8 boundaries in 28 slots (4 green starts
	// after amber + 4 amber starts).
	if st.Transitions != 7 {
		t.Errorf("transitions = %d, want 7", st.Transitions)
	}
}

func TestPhaseRecorderFiltersJunction(t *testing.T) {
	e, _ := testEngine(t)
	rec := NewPhaseRecorder(network.NodeID(999))
	e.AddHooks(rec.Hooks())
	e.Run(10)
	if len(rec.Phases) != 0 {
		t.Fatal("recorded phases for the wrong junction")
	}
}

func TestQueueSeries(t *testing.T) {
	e, g := testEngine(t)
	road := g.Entries(network.North)[0]
	qs := NewQueueSeries(road, 4)
	e.AddHooks(qs.Hooks())
	e.Run(100)
	if len(qs.Values) != 25 {
		t.Fatalf("samples = %d, want 25", len(qs.Values))
	}
	if qs.Times[1]-qs.Times[0] != 4 {
		t.Errorf("stride wrong: %v", qs.Times[:2])
	}
	if qs.Max() < 0 || qs.Mean() < 0 {
		t.Error("negative queue summary")
	}
	// Stride is clamped to >= 1.
	if NewQueueSeries(road, 0).Every != 1 {
		t.Error("stride clamp failed")
	}
}

func TestOccupancySeriesAndThroughput(t *testing.T) {
	e, _ := testEngine(t)
	oc := NewOccupancySeries(1)
	e.AddHooks(oc.Hooks())
	e.Run(300)
	if len(oc.Values) != 300 {
		t.Fatalf("occupancy samples = %d", len(oc.Values))
	}
	tot := e.Totals()
	if oc.Final() != tot.Entered-tot.Exited {
		t.Errorf("final occupancy %d != %d", oc.Final(), tot.Entered-tot.Exited)
	}
	if NewOccupancySeries(0).Every != 1 {
		t.Error("clamps failed")
	}
}

func TestQueueSeriesMeanMaxEmpty(t *testing.T) {
	qs := NewQueueSeries(0, 1)
	if qs.Mean() != 0 || qs.Max() != 0 {
		t.Error("empty series summaries not 0")
	}
}
