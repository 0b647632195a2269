package bpest_test

import (
	"testing"

	"utilbp/internal/bpest"
	"utilbp/internal/signal/signaltest"
)

// TestConformanceBPEst runs the shared controller conformance suite
// over the estimated-routing BP family at several estimator forgetting
// rates. The scripts advance per-movement departure counters on a
// subset of links, so the batch-factory and stale-equivalence subtests
// verify that estimator state folds every round's joins, under batched
// and per-junction dispatch, bit-for-bit, and the reset-rebuild subtest
// verifies estimators start back at the uniform prior on every factory
// build.
func TestConformanceBPEst(t *testing.T) {
	cases := []signaltest.Case{
		{Name: "BP-EST", Factory: bpest.Factory(bpest.Options{}), AmberSteps: 4, MinGreenSteps: 1},
		{Name: "BP-EST-fast", Factory: bpest.Factory(bpest.Options{Alpha: 0.3}), AmberSteps: 4},
		{Name: "BP-EST-slow", Factory: bpest.Factory(bpest.Options{Alpha: 0.01, AmberSteps: 2}), AmberSteps: 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) { signaltest.Run(t, c) })
	}
}
