package maxpressure

import (
	"math"
	"testing"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

func testInfo() signal.JunctionInfo {
	return signal.JunctionInfo{Label: "t", Phases: [][]int{{0, 1}, {2, 3}}, NumLinks: 4, WStar: 120, DeltaT: 1}
}

// TestWeight pins the pressure formula: (queue − mean downstream
// movement queue) · µ, with InTransit folded in only under the
// approach-counting variant.
func TestWeight(t *testing.T) {
	l := signal.LinkObs{Queue: 10, InTransit: 4, Mu: 0.5, OutTurnQueue: [signal.NumTurns]int32{6, 3, 0}}
	if got, want := Weight(&l, false), (10.0-3.0)*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Weight = %v, want %v", got, want)
	}
	if got, want := Weight(&l, true), (14.0-3.0)*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Weight(approaching) = %v, want %v", got, want)
	}
	// Congested downstream drives the weight negative: the pressure
	// term de-prioritises feeding a saturated road.
	l.OutTurnQueue = [signal.NumTurns]int32{40, 40, 40}
	if got := Weight(&l, false); got >= 0 {
		t.Errorf("Weight with saturated downstream = %v, want negative", got)
	}
}

// TestOptionsValidation table-tests New's option rejection.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"defaults", Options{}, true},
		{"explicit", Options{MinGreenSteps: 5, AmberSteps: 2, CountApproaching: true}, true},
		{"negative min green", Options{MinGreenSteps: -1}, false},
		{"negative amber", Options{AmberSteps: -2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(testInfo(), c.opts)
			if c.ok && err != nil {
				t.Fatalf("New(%+v) = %v, want ok", c.opts, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("New(%+v) succeeded, want error", c.opts)
			}
		})
	}
}

// TestBatchBuiltHoldsNoScratch checks that a controller built for the
// weighted batch allocates no Decide scratch: the batch hands it its
// window of the shared weight slab.
func TestBatchBuiltHoldsNoScratch(t *testing.T) {
	for j, bc := range signaltest.WeightedBatchControllers(t, Factory(Options{})) {
		if c := bc.(*Controller); c.weights != nil {
			t.Fatalf("batch-built controller %d holds %d weights", j, len(c.weights))
		}
	}
}
