package core_test

import (
	"testing"

	"utilbp/internal/core"
	"utilbp/internal/signal/signaltest"
)

// TestConformanceUtilBP runs the shared controller conformance suite
// over the UTIL-BP family: the paper's configuration and every ablation
// variant, each of which must satisfy the engine contract (in-range
// decisions, 4-slot amber insertion, replay determinism) and match its
// own batched dispatch bit-for-bit.
func TestConformanceUtilBP(t *testing.T) {
	cases := []signaltest.Case{
		{Name: "UTIL-BP", Factory: core.Factory(core.Options{}), AmberSteps: 4, MinGreenSteps: 1},
		{Name: "UTIL-BP-nokeep", Factory: core.Factory(core.Options{NoKeepPhase: true}), AmberSteps: 4},
		{Name: "UTIL-BP-nowstar", Factory: core.Factory(core.Options{Variant: core.GainVariant{NoWStarShift: true}}), AmberSteps: 4},
		{Name: "UTIL-BP-nospecial", Factory: core.Factory(core.Options{Variant: core.GainVariant{NoSpecialCases: true}}), AmberSteps: 4},
		{Name: "UTIL-BP-wholeroad", Factory: core.Factory(core.Options{Variant: core.GainVariant{WholeRoadPressure: true}}), AmberSteps: 4},
		{Name: "UTIL-BP-approaching", Factory: core.Factory(core.Options{Variant: core.GainVariant{CountApproaching: true}}), AmberSteps: 4},
		{Name: "UTIL-BP-amber2", Factory: core.Factory(core.Options{AmberSteps: 2}), AmberSteps: 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) { signaltest.Run(t, c) })
	}
}
