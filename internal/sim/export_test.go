package sim

import (
	"utilbp/internal/network"
	"utilbp/internal/signal"
)

// QuietOffered returns how many junctions the engine's last batched
// control round offered as quiet (signal.Batch.Quiet), so tests can
// assert that the quiet-junction skip engaged without a public counter.
func QuietOffered(e *Engine) int {
	n := 0
	for _, q := range e.batch.Quiet {
		if q {
			n++
		}
	}
	return n
}

// RunServeReference advances the engine like Run, with the reference
// serve loop of serveref_test.go in place of the batched serve plane —
// the oracle side of the serve-equivalence harness.
func RunServeReference(e *Engine, steps int) {
	for i := 0; i < steps; i++ {
		e.stepServeReference()
	}
}

// SetJunctionPhases overwrites junction ji's applied and previous
// phase, so tests can write snapshot streams no controller produces.
func SetJunctionPhases(e *Engine, ji int, current, prev signal.Phase) {
	e.juncs[ji].current, e.juncs[ji].prev = current, prev
}

// RoadTables returns what New derived for road rid from the network:
// its free-flow travel time and its feasible-movement mask.
func RoadTables(e *Engine, rid network.RoadID) (travel float64, feasible uint8) {
	return e.roads[rid].travel, e.roads[rid].feasible
}
