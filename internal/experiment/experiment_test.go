package experiment

import (
	"reflect"
	"strings"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// quick returns a setup and a short horizon for fast runs.
func quickSetup() scenario.Setup {
	s := scenario.Default()
	s.Seed = 11
	return s
}

func TestRunBasics(t *testing.T) {
	setup := quickSetup()
	res, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: setup.UtilBP(), DurationSec: 600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != "UTIL-BP" || res.Pattern != scenario.PatternII {
		t.Errorf("metadata: %+v", res)
	}
	if res.DurationSec != 600 {
		t.Errorf("duration: %v", res.DurationSec)
	}
	if res.Summary.Spawned == 0 || res.Summary.Exited == 0 {
		t.Errorf("no traffic: %+v", res.Summary)
	}
	if res.Summary.MeanWait <= 0 {
		t.Errorf("mean wait: %v", res.Summary.MeanWait)
	}
}

func TestRunRequiresFactory(t *testing.T) {
	if _, err := Run(Spec{Setup: quickSetup(), Pattern: scenario.PatternI}); err == nil {
		t.Fatal("missing factory accepted")
	}
}

func TestRunDefaultDuration(t *testing.T) {
	setup := quickSetup()
	_, _, duration, err := Prepare(Spec{Setup: setup, Pattern: scenario.PatternI, Factory: setup.UtilBP()})
	if err != nil {
		t.Fatal(err)
	}
	if duration != 3600 {
		t.Errorf("default duration = %v", duration)
	}
}

func TestSweepOrderedAndBest(t *testing.T) {
	setup := quickSetup()
	points, err := SweepCAPPeriods(setup, scenario.PatternII, []int{30, 10, 20}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Results come back in the order given.
	if points[0].PeriodSec != 30 || points[1].PeriodSec != 10 || points[2].PeriodSec != 20 {
		t.Errorf("order: %+v", points)
	}
	best, err := BestPeriod(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.MeanWait < best.MeanWait {
			t.Errorf("best %v not minimal vs %v", best, p)
		}
	}
	if _, err := BestPeriod(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestSweepDeterministic(t *testing.T) {
	setup := quickSetup()
	a, err := SweepCAPPeriods(setup, scenario.PatternII, []int{12, 24}, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepCAPPeriods(setup, scenario.PatternII, []int{12, 24}, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep diverged: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestTableIIIShortRun(t *testing.T) {
	setup := quickSetup()
	rows, err := TableIII(setup, []scenario.Pattern{scenario.PatternII}, []int{14, 20}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Pattern != scenario.PatternII {
		t.Errorf("pattern: %v", r.Pattern)
	}
	if r.CAPPeriodSec != 14 && r.CAPPeriodSec != 20 {
		t.Errorf("period: %d", r.CAPPeriodSec)
	}
	if r.CAPMeanWait <= 0 || r.UTILMeanWait <= 0 {
		t.Errorf("waits: %+v", r)
	}
	text := FormatTableIII(rows)
	if !strings.Contains(text, "II") || !strings.Contains(text, "UTIL-BP") {
		t.Errorf("format: %q", text)
	}
}

func TestFig2ShortRun(t *testing.T) {
	setup := quickSetup()
	data, err := Fig2(setup, []int{16, 40}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != 2 || data.UTILWait <= 0 {
		t.Errorf("fig2: %+v", data)
	}
	text := FormatFig2(data)
	if !strings.Contains(text, "UTIL-BP") || !strings.Contains(text, "16 s") {
		t.Errorf("format: %q", text)
	}
}

// traceCases are the two controllers the TraceJunction short runs cover,
// with the name each run's Result must carry.
func traceCases(setup scenario.Setup) []struct {
	factory signal.Factory
	name    string
} {
	return []struct {
		factory signal.Factory
		name    string
	}{
		{setup.UtilBP(), "UTIL-BP"},
		{setup.CapBP(16), "CAP-BP"},
	}
}

// TestPhaseTimelineShortRun checks the phase half of TraceJunction: one
// phase per mini-slot, the run's metadata, and green plus amber slots
// adding up to the horizon.
func TestPhaseTimelineShortRun(t *testing.T) {
	setup := quickSetup()
	for _, c := range traceCases(setup) {
		tr, err := TraceJunction(setup, scenario.PatternI, c.factory, 300, 0, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Phases) != 300 {
			t.Fatalf("%s: timeline length = %d", c.name, len(tr.Phases))
		}
		if tr.Controller != c.name || tr.DT != 1 || tr.DurationSec != 300 {
			t.Errorf("%s: metadata: controller %q, dt %v, horizon %v", c.name, tr.Controller, tr.DT, tr.DurationSec)
		}
		greens := 0
		for p := range tr.Stats.GreenSlots {
			if p == signal.Amber {
				t.Errorf("%s: amber counted as green", c.name)
			}
			greens += tr.Stats.GreenSlots[p]
		}
		if greens+tr.Stats.AmberSlots != 300 {
			t.Errorf("%s: slots don't add up: %d + %d", c.name, greens, tr.Stats.AmberSlots)
		}
	}
	if _, err := TraceJunction(setup, scenario.PatternI, setup.UtilBP(), 100, 9, 9, 5); err == nil {
		t.Error("bad junction accepted")
	}
}

// TestEastQueueSeriesShortRun checks the queue half of TraceJunction: one
// east-approach sample every stride mini-slots, and a run that ended in
// Finish with vehicles in it.
func TestEastQueueSeriesShortRun(t *testing.T) {
	setup := quickSetup()
	for _, c := range traceCases(setup) {
		tr, err := TraceJunction(setup, scenario.PatternI, c.factory, 300, 0, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Queue) != 60 || len(tr.QueueTimes) != 60 {
			t.Fatalf("%s: samples = %d, want 60", c.name, len(tr.Queue))
		}
		if tr.Controller != c.name {
			t.Errorf("%s: controller: %q", c.name, tr.Controller)
		}
		if tr.Summary.Spawned == 0 {
			t.Errorf("%s: summary of an empty run: %+v", c.name, tr.Summary)
		}
	}
	if _, err := TraceJunction(setup, scenario.PatternI, setup.CapBP(16), 100, 9, 9, 5); err == nil {
		t.Error("bad junction accepted")
	}
}

// TestTraceJunctionMatchesPhaseHook pins TraceJunction's per-step phase
// reads against the engine's Phase hook on a separately prepared engine
// of the same spec: the hook fires at the decision itself, so it is an
// independent oracle for reading CurrentPhase between single steps.
func TestTraceJunctionMatchesPhaseHook(t *testing.T) {
	setup := quickSetup()
	for _, factory := range []signal.Factory{setup.UtilBP(), setup.CapBP(16)} {
		tr, err := TraceJunction(setup, scenario.PatternI, factory, 400, 0, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		engine, built, duration, err := Prepare(Spec{Setup: setup, Pattern: scenario.PatternI, Factory: factory, DurationSec: 400})
		if err != nil {
			t.Fatal(err)
		}
		junction := built.Grid.JunctionAt(0, 2)
		var hooked []signal.Phase
		engine.AddHooks(sim.Hooks{Phase: func(j network.NodeID, _ int, p signal.Phase) {
			if j == junction {
				hooked = append(hooked, p)
			}
		}})
		engine.RunFor(duration)
		if !reflect.DeepEqual(tr.Phases, hooked) {
			t.Fatalf("%s: traced phases differ from the Phase hook recording (%d vs %d slots)", factory.Name(), len(tr.Phases), len(hooked))
		}
	}
}

func TestDefaultAndCoarsePeriods(t *testing.T) {
	d := DefaultPeriods()
	if d[0] != 10 || d[len(d)-1] != 80 || len(d) != 36 {
		t.Errorf("default periods: %v", d)
	}
	c := CoarsePeriods()
	if c[0] != 10 || c[len(c)-1] != 80 || len(c) != 8 {
		t.Errorf("coarse periods: %v", c)
	}
}

// TestHeadlineShortRun is the integration check of the paper's headline:
// on a shortened Pattern IV run, UTIL-BP beats CAP-BP at every period in
// a small sweep.
func TestHeadlineShortRun(t *testing.T) {
	setup := quickSetup()
	util, err := Run(Spec{Setup: setup, Pattern: scenario.PatternIV, Factory: setup.UtilBP(), DurationSec: 1500})
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepCAPPeriods(setup, scenario.PatternIV, []int{14, 22, 30}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := BestPeriod(points)
	if util.Summary.MeanWait >= best.MeanWait {
		t.Errorf("UTIL-BP (%.1f s) did not beat CAP-BP best (%.1f s @ %d s)",
			util.Summary.MeanWait, best.MeanWait, best.PeriodSec)
	}
}

// TestMixedLanesExtension checks the HOL extension run path end to end.
func TestMixedLanesExtension(t *testing.T) {
	setup := quickSetup()
	dedicated, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: setup.UtilBP(), DurationSec: 800})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: setup.UtilBP(), DurationSec: 800, MixedLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	// HOL blocking can only hurt: mixed lanes should not beat dedicated
	// lanes.
	if mixed.Summary.MeanWait < dedicated.Summary.MeanWait*0.95 {
		t.Errorf("mixed lanes (%.1f) suspiciously better than dedicated (%.1f)",
			mixed.Summary.MeanWait, dedicated.Summary.MeanWait)
	}
}
