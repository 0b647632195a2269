package bpest

import (
	"math"
	"testing"

	"utilbp/internal/rng"
	"utilbp/internal/signal"
)

// TestTurnRatioEstimatorConverges feeds the estimator a long stream of
// joins drawn from known routing rates and checks it converges to the
// truth within tolerance. Exponential forgetting never averages out its
// stationary sampling noise — the instantaneous estimate hovers around
// the truth with variance scaling in alpha — so the check time-averages
// the estimate over the second half of the stream, where the mean has
// long converged and the noise integrates away.
func TestTurnRatioEstimatorConverges(t *testing.T) {
	truth := [signal.NumTurns]float64{0.5, 0.3, 0.2}
	const steps = 4000
	for _, alpha := range []float64{0.01, 0.05} {
		e := NewTurnRatioEstimator(alpha)
		r := rng.New(7)
		var joins [signal.NumTurns]int32
		var avg [signal.NumTurns]float64
		for step := 0; step < steps; step++ {
			// One to three vehicles join per step, each routed by truth.
			n := 1 + int(r.Uint64()%3)
			for v := 0; v < n; v++ {
				u := float64(r.Uint64()%1_000_000) / 1_000_000
				switch {
				case u < truth[0]:
					joins[0]++
				case u < truth[0]+truth[1]:
					joins[1]++
				default:
					joins[2]++
				}
			}
			e.Observe(joins)
			if step >= steps/2 {
				for turn, v := range e.Ratios() {
					avg[turn] += v
				}
			}
		}
		sum := 0.0
		for turn, want := range truth {
			got := avg[turn] / (steps / 2)
			sum += got
			if math.Abs(got-want) > 0.03 {
				t.Errorf("alpha=%v turn %d: time-averaged estimate %.4f, want %.2f ± 0.03", alpha, turn, got, want)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: averaged ratios sum to %v, want 1", alpha, sum)
		}
	}
}

// TestTurnRatioEstimatorNoEventNoOp pins the property the batch's quiet
// skip relies on: observing unchanged counters leaves the estimator
// state bit-for-bit identical.
func TestTurnRatioEstimatorNoEventNoOp(t *testing.T) {
	e := NewTurnRatioEstimator(0.05)
	e.Observe([signal.NumTurns]int32{4, 2, 1})
	before := e
	e.Observe([signal.NumTurns]int32{4, 2, 1})
	if e != before {
		t.Fatalf("no-event Observe changed state: %+v -> %+v", before, e)
	}
}

// TestTurnRatioEstimatorBatchOrderInvariance pins the batch update
// form: folding n events in one Observe equals folding them one at a
// time, so observation cadence (per-slot vs per-event) cannot change
// the estimate.
func TestTurnRatioEstimatorBatchOrderInvariance(t *testing.T) {
	one := NewTurnRatioEstimator(0.1)
	one.Observe([signal.NumTurns]int32{3, 0, 0})

	step := NewTurnRatioEstimator(0.1)
	step.Observe([signal.NumTurns]int32{1, 0, 0})
	step.Observe([signal.NumTurns]int32{2, 0, 0})
	step.Observe([signal.NumTurns]int32{3, 0, 0})

	for turn := range one.Ratios() {
		got, want := step.Ratios()[turn], one.Ratios()[turn]
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("turn %d: per-event %.15f vs batch %.15f", turn, got, want)
		}
	}
}

// TestOptionsValidation table-tests the NaN- and sign-rejecting option
// checks of New.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"defaults", Options{}, true},
		{"explicit", Options{Alpha: 0.2, GainAlpha: -0.5, GainBeta: -3, AmberSteps: 2}, true},
		{"alpha zero stays default", Options{Alpha: 0}, true},
		{"alpha one", Options{Alpha: 1}, false},
		{"alpha negative", Options{Alpha: -0.1}, false},
		{"alpha NaN", Options{Alpha: math.NaN()}, false},
		{"gain alpha positive", Options{GainAlpha: 1}, false},
		{"gain alpha NaN", Options{GainAlpha: math.NaN()}, false},
		{"gain beta positive", Options{GainBeta: 2}, false},
		{"gain beta NaN", Options{GainBeta: math.NaN()}, false},
		{"amber negative", Options{AmberSteps: -1}, false},
	}
	info := signal.JunctionInfo{Label: "t", Phases: [][]int{{0}, {1}}, NumLinks: 2, WStar: 120, DeltaT: 1}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(info, c.opts)
			if c.ok && err != nil {
				t.Fatalf("New(%+v) = %v, want ok", c.opts, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("New(%+v) succeeded, want error", c.opts)
			}
		})
	}
}
