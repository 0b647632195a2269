// Snapshot/restore cost on the paper-scale engine (PERF.md PR 8):
// checkpointing is off the hot path by design — these benchmarks record
// its price so the trajectory notices if the format ever gets
// expensive enough to matter for checkpoint-heavy sweeps.
package sim_test

import (
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sim"
)

// loadedSnapshotEngine builds the paper's 3×3 UTIL-BP engine under
// Pattern II demand and runs it into a loaded mid-run state, the
// representative checkpoint subject.
func loadedSnapshotEngine(b testing.TB) *sim.Engine {
	b.Helper()
	setup := scenario.Default()
	setup.Seed = 7
	built, err := setup.Build(scenario.PatternII)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:         built.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      built.Demand,
		Router:      built.Router,
		Routes:      built.Routes,
	})
	if err != nil {
		b.Fatal(err)
	}
	engine.Run(900)
	return engine
}

// BenchmarkSnapshot measures the cost of capturing a loaded paper-grid
// engine; SetBytes reports the stream size as throughput.
func BenchmarkSnapshot(b *testing.B) {
	engine := loadedSnapshotEngine(b)
	b.SetBytes(int64(len(engine.Snapshot())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.Snapshot()
	}
}

// TestSnapshotAllocs pins Snapshot at two allocations on the loaded
// paper grid. The fingerprint's controller and sensor entries are
// formatted once, when the engine's factory or sensor is set; formatted
// on every call, they made it five.
func TestSnapshotAllocs(t *testing.T) {
	engine := loadedSnapshotEngine(t)
	if allocs := testing.AllocsPerRun(50, func() { _ = engine.Snapshot() }); allocs > 2 {
		t.Fatalf("Snapshot makes %v allocations, want at most 2", allocs)
	}
}

// BenchmarkRestore measures the rewind latency of restoring that same
// snapshot into the engine it came from (the pooled-engine case: arena
// capacity is reused, so steady-state restores settle to zero growth).
func BenchmarkRestore(b *testing.B) {
	engine := loadedSnapshotEngine(b)
	data := engine.Snapshot()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Restore(data); err != nil {
			b.Fatal(err)
		}
	}
}
