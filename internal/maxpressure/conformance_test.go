package maxpressure_test

import (
	"testing"

	"utilbp/internal/maxpressure"
	"utilbp/internal/signal/signaltest"
)

// TestConformanceMaxPressure runs the shared controller conformance
// suite over the MaxPressure family: the default configuration, the
// approach-counting variant, and tightened timer variants — each must
// satisfy the engine contract and match its own batched dispatch
// bit-for-bit (it runs on the shared weighted batch like UTIL-BP).
func TestConformanceMaxPressure(t *testing.T) {
	cases := []signaltest.Case{
		{Name: "MAXPRESSURE", Factory: maxpressure.Factory(maxpressure.Options{}), AmberSteps: 4, MinGreenSteps: 10},
		{Name: "MAXPRESSURE-approaching", Factory: maxpressure.Factory(maxpressure.Options{CountApproaching: true}), AmberSteps: 4, MinGreenSteps: 10},
		{Name: "MAXPRESSURE-short", Factory: maxpressure.Factory(maxpressure.Options{MinGreenSteps: 5, AmberSteps: 2}), AmberSteps: 2, MinGreenSteps: 5},
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) { signaltest.Run(t, c) })
	}
}
