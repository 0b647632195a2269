package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
)

// snapDrill runs the tentpole equivalence drill on a prepared engine:
// run to step k, snapshot, run to n, then restore the checkpoint and
// run to n again — the two step-n snapshots must be bit-for-bit equal
// (DESIGN.md §14).
func snapDrill(t *testing.T, spec Spec, k, n int) {
	t.Helper()
	engine, _, _, err := Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(k)
	snapK := engine.Snapshot()
	engine.Run(n - k)
	want := engine.Snapshot()
	if err := engine.Restore(snapK); err != nil {
		t.Fatalf("restore at step %d: %v", k, err)
	}
	engine.Run(n - k)
	if got := engine.Snapshot(); !bytes.Equal(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run at step %d", n)
	}
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoreWorkloads runs the snapshot/restore equivalence
// drill on every registered workload with its suggested controller —
// grids from the 1×5 corridor to the 16×16 city, all demand shapes, the
// connected-vehicle sensed workload and the disrupted city grid.
func TestSnapshotRestoreWorkloads(t *testing.T) {
	for _, w := range scenario.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			factory, err := w.Setup.Controller(w.Controller)
			if err != nil {
				t.Fatal(err)
			}
			snapDrill(t, Spec{
				Setup:       w.Setup,
				Pattern:     w.Pattern,
				Factory:     factory,
				DurationSec: 300,
			}, 60, 150)
		})
	}
}

// TestSnapshotRestoreControllerFamilies runs the drill for every
// controller family of the zoo on a sensed AND disrupted 3×3 grid —
// checkpointing at step 60, mid-incident, mid-outage and mid-dark, so
// every family's cross-step state (slot timers, gap-out clocks,
// turn-ratio estimators) and the sensor/outage state must survive the
// restore exactly.
func TestSnapshotRestoreControllerFamilies(t *testing.T) {
	setup := disruptedSensedSetup(t)
	for _, name := range scenario.ControllerSpecNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := scenario.ParseControllerSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			factory, err := setup.Controller(spec)
			if err != nil {
				t.Fatal(err)
			}
			snapDrill(t, Spec{
				Setup:       setup,
				Pattern:     scenario.PatternII,
				Factory:     factory,
				DurationSec: 300,
			}, 60, 150)
		})
	}
}

// TestSnapshotRestorePerJunctionDispatch repeats the drill under forced
// per-junction dispatch, covering the non-batched controller sections
// of the snapshot (one bounded section per junction controller).
func TestSnapshotRestorePerJunctionDispatch(t *testing.T) {
	setup := disruptedSensedSetup(t)
	setup.Control = signal.ControlPerJunction
	factory, err := setup.Controller(scenario.ControllerSpec{Kind: scenario.ControllerBPEst})
	if err != nil {
		t.Fatal(err)
	}
	snapDrill(t, Spec{
		Setup:       setup,
		Pattern:     scenario.PatternII,
		Factory:     factory,
		DurationSec: 300,
	}, 60, 150)
}

// disruptedSensedSetup returns the 3×3 grid observed through 50%
// connected-vehicle penetration with a capacity incident, a dark
// junction, a sensor outage and a demand surge all active around the
// step-60 checkpoint.
func disruptedSensedSetup(t *testing.T) scenario.Setup {
	t.Helper()
	setup, err := scenario.Default().WithCentralIncident(30, 50, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	setup.Sensor = sensing.CV(0.5)
	g, err := network.Grid(setup.Grid)
	if err != nil {
		t.Fatal(err)
	}
	west := g.Junction(scenario.TopRight(g)).In[network.West]
	outaged := g.Road(west).Name
	setup.Events = append(setup.Events,
		event.Dark("J00", 80, 40),
		event.Surge(20, 100, 1.3),
		event.Outage(outaged, 40, 60, sensing.OutageFreeze),
	)
	return setup
}

// TestSnapshotRejectsV1Stream pins the version-gate contract: a stream
// of an older layout — v1 (row-major vehicle records) or v2 (the travel
// heap's array order and tie-break numbers, before the v3 transit
// lists) — must be rejected up front with a clear structural error
// naming both versions, never handed to the section decoders, where the
// old layout would misparse or panic. There is no cross-version
// migration; snapshots are checkpoints of a running experiment, not
// archives.
func TestSnapshotRejectsV1Stream(t *testing.T) {
	factory, err := scenario.Default().Controller(scenario.ControllerSpec{Kind: scenario.ControllerUtil})
	if err != nil {
		t.Fatal(err)
	}
	engine, _, _, err := Prepare(Spec{
		Setup:       scenario.Default(),
		Pattern:     scenario.PatternII,
		Factory:     factory,
		DurationSec: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine.Run(40)
	good := engine.Snapshot()

	// Bytes [8:16) hold the little-endian format version (after the
	// 8-byte magic); rewrite them to claim each older version.
	for _, v := range []uint64{1, 2} {
		old := bytes.Clone(good)
		binary.LittleEndian.PutUint64(old[8:16], v)
		err = engine.Restore(old)
		if err == nil {
			t.Fatalf("v%d stream accepted", v)
		}
		for _, want := range []string{fmt.Sprintf("snapshot version %d", v), "supports 3"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("v%d rejection error %q does not mention %q", v, err, want)
			}
		}
	}

	// A clobbered magic is a different failure class: not a snapshot at
	// all, reported as such rather than as a version skew.
	junk := bytes.Clone(good)
	binary.LittleEndian.PutUint64(junk[0:8], 0xBAD0BEEF)
	if err := engine.Restore(junk); err == nil || !strings.Contains(err.Error(), "not an engine snapshot") {
		t.Fatalf("bad-magic error = %v", err)
	}

	// The untouched stream still restores and resumes cleanly — the
	// rejections above fired before any state was consumed.
	if err := engine.Restore(good); err != nil {
		t.Fatal(err)
	}
	engine.Run(10)
	if err := engine.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
