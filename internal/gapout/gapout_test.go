package gapout

import (
	"testing"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

func testInfo() signal.JunctionInfo {
	return signal.JunctionInfo{Label: "t", Phases: [][]int{{0, 1}, {2, 3}}, NumLinks: 4, WStar: 120, DeltaT: 1}
}

// TestOptionsValidation table-tests New's option rejection, including
// the MaxGreen ≥ MinGreen coupling.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"defaults", Options{}, true},
		{"explicit", Options{MinGreenSteps: 4, MaxGreenSteps: 16, GapSteps: 2, AmberSteps: 2}, true},
		{"min equals max", Options{MinGreenSteps: 10, MaxGreenSteps: 10}, true},
		{"negative min", Options{MinGreenSteps: -1}, false},
		{"max below min", Options{MinGreenSteps: 20, MaxGreenSteps: 10}, false},
		{"negative gap", Options{GapSteps: -1}, false},
		{"negative amber", Options{AmberSteps: -1}, false},
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

// TestGapOutTerminatesEarly drives the controller directly and checks
// the gap-out path: a green with demand vanishing after min-green ends
// gap steps later, well before max-green.
func TestGapOutTerminatesEarly(t *testing.T) {
	c, err := New(testInfo(), Options{MinGreenSteps: 4, MaxGreenSteps: 30, GapSteps: 3, AmberSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs := &signal.Obs{Current: signal.Amber}
	obs.Links, obs.Rows = signaltest.Pairs(make([]signaltest.LinkObs, 4)...)
	lane0 := &obs.Rows[obs.Links[0].In].Queued[obs.Links[0].Turn]
	// Demand on phase 1 only for the first 2 steps of its green.
	greenLen := 0
	var phase signal.Phase
	for step := 0; step < 40; step++ {
		obs.Step = step
		*lane0 = 0
		if phase == 1 && greenLen < 2 {
			*lane0 = 3
		}
		got := c.Decide(obs)
		if got == phase && phase != signal.Amber {
			greenLen++
		} else if got != signal.Amber {
			greenLen = 1
		}
		phase = got
		obs.Current = got
		if phase == 1 && greenLen > 7 {
			// min(4) + gap(3) = 7: demand stopped at step 2 of the
			// green, so the gap timer must cut it at length 7.
			t.Fatalf("green held %d steps, want gap-out at 7", greenLen)
		}
	}
}
