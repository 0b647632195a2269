// The v2 snapshot format pinned across commits: the equivalence tests
// compare two snapshots taken by one binary, so a layout change that
// reorders or re-encodes a field consistently on both sides passes
// them. This test hashes the bytes of three fixed runs instead, so any
// change to what Snapshot writes shows up as a hash mismatch.
package sim_test

import (
	"hash/fnv"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sim"
)

// TestSnapshotBytesPinned pins the FNV-64a hash of Snapshot() for three
// runs: the paper grid under Pattern I at step 600 with separate
// turning lanes and with the mixed lane, and city-grid-incident at step
// 100, inside its incident window, so the stream carries a reduced
// effective capacity. A change to the engine that keeps the format must
// reproduce these hashes; one that changes the format bumps
// snapshotVersion and re-records them.
func TestSnapshotBytesPinned(t *testing.T) {
	city, ok := scenario.WorkloadByName("city-grid-incident")
	if !ok {
		t.Fatal("city-grid-incident is not registered")
	}
	cases := []struct {
		name    string
		setup   scenario.Setup
		pattern scenario.Pattern
		mixed   bool
		steps   int
		want    uint64
	}{
		{"paper-grid/I/separate", scenario.Default(), scenario.PatternI, false, 600, 0x5967736994e9a874},
		{"paper-grid/I/mixed", scenario.Default(), scenario.PatternI, true, 600, 0x22416b22ceef75ff},
		{"city-grid-incident/100", city.Setup, city.Pattern, false, 100, 0x65cfe7ab660ece65},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			built, err := tc.setup.Build(tc.pattern)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: tc.setup.UtilBP(),
				Demand:      built.Demand,
				Router:      built.Router,
				Routes:      built.Routes,
				Sensor:      built.Sensor,
				Events:      built.Events,
				MixedLanes:  tc.mixed,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Run(tc.steps)
			reduced := false
			for i := range built.Grid.Network.Roads {
				r := &built.Grid.Network.Roads[i]
				reduced = reduced || e.EffectiveCapacity(r.ID) != r.Capacity
			}
			if wantReduced := tc.setup.Events != nil; reduced != wantReduced {
				t.Fatalf("a reduced effective capacity at step %d: %v, want %v", tc.steps, reduced, wantReduced)
			}
			h := fnv.New64a()
			h.Write(e.Snapshot())
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("snapshot hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
