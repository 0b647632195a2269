package experiment

import (
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/signal"
)

// TestEngineCacheRunModeMatchesFresh pins the controller-mode axis of
// the engine cache: a cache bound to a setup with a given Control mode
// must match freshly built engines of that mode for each cell, across
// seed switches and revisits — and the modes must match each other,
// since the batched control plane is pinned bit-for-bit to the
// per-junction path. (Switching the mode of one engine between rewinds
// is pinned in internal/sim by TestControlModeResetWithSwitch.)
func TestEngineCacheRunModeMatchesFresh(t *testing.T) {
	base := scenario.Default()
	base.Seed = 3
	caches := map[signal.ControlMode]*EngineCache{}
	for _, mode := range []signal.ControlMode{signal.ControlBatched, signal.ControlPerJunction} {
		setup := base
		setup.Control = mode
		caches[mode] = NewEngineCache(setup)
	}
	const horizon = 600

	cells := []struct {
		name string
		mode signal.ControlMode
		seed uint64
	}{
		{"batched-seed3", signal.ControlBatched, 3},
		{"per-junction-seed3", signal.ControlPerJunction, 3},
		{"batched-seed4", signal.ControlBatched, 4},
		{"per-junction-seed4", signal.ControlPerJunction, 4},
		{"per-junction-again", signal.ControlPerJunction, 3},
	}
	waits := map[uint64]map[signal.ControlMode]float64{}
	for _, cell := range cells {
		setup := base
		setup.Seed = cell.seed
		setup.Control = cell.mode
		got, err := caches[cell.mode].Run(scenario.PatternII, FamilyUtilBP, setup.UtilBP(), setup.Sensor, cell.seed, horizon)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		fresh, err := Run(Spec{Setup: setup, Pattern: scenario.PatternII, Factory: setup.UtilBP(), DurationSec: horizon})
		if err != nil {
			t.Fatalf("%s fresh: %v", cell.name, err)
		}
		if got != fresh {
			t.Fatalf("%s: cached result %+v != fresh result %+v", cell.name, got, fresh)
		}
		if waits[cell.seed] == nil {
			waits[cell.seed] = map[signal.ControlMode]float64{}
		}
		waits[cell.seed][cell.mode] = got.Summary.MeanWait
	}
	for seed, byMode := range waits {
		if byMode[signal.ControlBatched] != byMode[signal.ControlPerJunction] {
			t.Fatalf("seed %d: batched mean wait %v != per-junction %v",
				seed, byMode[signal.ControlBatched], byMode[signal.ControlPerJunction])
		}
	}
}
