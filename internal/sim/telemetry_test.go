package sim

import (
	"bytes"
	"strings"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/signal"
	"utilbp/internal/telemetry"
)

// telemTestRecorder builds and installs a recorder on a fresh
// snapshot-test engine.
func telemTestRecorder(t *testing.T, e *Engine, spec telemetry.Spec, steps int) *telemetry.Recorder {
	t.Helper()
	rec, err := telemetry.NewRecorder(spec, steps)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InstallTelemetry(rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTelemetryObservationOnly pins the core contract of the telemetry
// plane: recording with the full spec changes nothing about the run.
// Two engines step in lockstep, one instrumented and one bare, and
// their snapshots must stay bit-for-bit identical (the snapshot doubles
// as a state hash, so this covers queues, RNG streams, controllers and
// totals at once).
func TestTelemetryObservationOnly(t *testing.T) {
	bare := snapTestEngine(t)
	inst := snapTestEngine(t)
	telemTestRecorder(t, inst, telemetry.Full(), 300)
	bare.Run(250)
	inst.Run(250)
	if !bytes.Equal(bare.Snapshot(), inst.Snapshot()) {
		t.Fatal("telemetry perturbed the run: snapshots diverged")
	}
	if bare.Totals() != inst.Totals() {
		t.Fatalf("totals diverged: %+v vs %+v", bare.Totals(), inst.Totals())
	}
}

// TestTelemetryNetSeries checks the recorded network channels against
// engine accessors at the final step.
func TestTelemetryNetSeries(t *testing.T) {
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Net(), 200)
	e.Run(120)
	if rec.Len() != 120 || rec.FirstStep() != 0 {
		t.Fatalf("recorded len %d first %d, want 120, 0", rec.Len(), rec.FirstStep())
	}
	queued := 0
	for _, rd := range e.Network().Roads {
		queued += e.ApproachQueue(rd.ID)
	}
	q := rec.NetQueued()
	if int(q[len(q)-1]) != queued {
		t.Fatalf("final queued sample %g, engine says %d", q[len(q)-1], queued)
	}
	// Per-step exit deltas must sum to the cumulative total.
	heads := rec.Headers()
	cols := rec.Columns()
	sum := 0
	for i, h := range heads {
		if h == "exited" {
			for _, v := range cols[i] {
				sum += int(v)
			}
		}
	}
	if sum != e.Totals().Exited {
		t.Fatalf("exit deltas sum to %d, totals say %d", sum, e.Totals().Exited)
	}
}

// TestTelemetrySurvivesReset pins the survival contract: unlike hooks,
// an installed recorder is rewound — not discarded — by Reset, and the
// replayed run records the same series as the first.
func TestTelemetrySurvivesReset(t *testing.T) {
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Net(), 200)
	e.Run(80)
	first := rec.NetQueued()
	if err := e.Reset(7); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Fatalf("reset left %d samples in the recorder", rec.Len())
	}
	if e.Telemetry() != rec {
		t.Fatal("reset uninstalled the recorder")
	}
	e.Run(80)
	second := rec.NetQueued()
	if len(first) != len(second) {
		t.Fatalf("replay recorded %d samples, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replayed series diverged at step %d: %g vs %g", i, second[i], first[i])
		}
	}
}

// TestTelemetrySurvivesResetWith checks the recorder also rides through
// ResetWith (which may swap the schedule and so the event windows).
func TestTelemetrySurvivesResetWith(t *testing.T) {
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Net(), 100)
	e.Run(40)
	if err := e.ResetWith(11, ResetOptions{}); err != nil {
		t.Fatal(err)
	}
	if e.Telemetry() != rec || rec.Len() != 0 {
		t.Fatalf("ResetWith broke the recorder: installed=%v len=%d", e.Telemetry() == rec, rec.Len())
	}
	e.Run(40)
	if rec.Len() != 40 || rec.FirstStep() != 0 {
		t.Fatalf("post-ResetWith recording: len %d first %d", rec.Len(), rec.FirstStep())
	}
}

// TestRestoreRearmsTelemetry pins the snapshot interaction: recorded
// history is not semantic state, so Restore rewinds the series (the
// pre-checkpoint window is gone) but keeps the recorder installed, and
// recording resumes from the restored step.
func TestRestoreRearmsTelemetry(t *testing.T) {
	const k = 60
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Full(), 300)
	e.Run(k)
	snap := e.Snapshot()
	e.Run(100)
	if err := e.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if e.Telemetry() != rec {
		t.Fatal("restore uninstalled the recorder")
	}
	if rec.Len() != 0 {
		t.Fatalf("restore kept %d samples recorded before the checkpoint", rec.Len())
	}
	e.Run(30)
	if rec.Len() != 30 || rec.FirstStep() != k {
		t.Fatalf("post-restore series: len %d first %d, want 30, %d", rec.Len(), rec.FirstStep(), k)
	}
	// The per-step deltas must restart from the restored totals, not the
	// pre-restore ones: their sum equals the exits since the checkpoint.
	heads := rec.Headers()
	cols := rec.Columns()
	for i, h := range heads {
		if h == "spawned" {
			sum := 0
			for _, v := range cols[i] {
				sum += int(v)
			}
			if sum < 0 || sum > e.Totals().Spawned {
				t.Fatalf("post-restore spawn deltas sum to %d (totals %d)", sum, e.Totals().Spawned)
			}
		}
	}
}

// TestRestoreHookReregistration documents the recommended hook pattern
// around Restore: hooks are discarded by the jump, and AddHooks
// immediately after re-arms them for the resumed run.
func TestRestoreHookReregistration(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(30)
	snap := e.Snapshot()
	if err := e.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	fired := 0
	e.AddHooks(Hooks{Phase: func(network.NodeID, int, signal.Phase) { fired++ }})
	e.Run(10)
	if want := 10 * len(e.Network().Junctions); fired != want {
		t.Fatalf("re-registered hook fired %d times, want %d", fired, want)
	}
}

// TestTelemetryJunctionResolution covers the net+junc spec path: labels
// resolve to engine junctions and surface in the export headers, and
// unknown labels are rejected with the junction named.
func TestTelemetryJunctionResolution(t *testing.T) {
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Junc("J01", "J10"), 50)
	e.Run(20)
	heads := rec.Headers()
	joined := strings.Join(heads, " ")
	for _, want := range []string{"J01_queued", "J10_pressure", "J01_est_err"} {
		if !strings.Contains(joined, want) {
			t.Errorf("headers missing %q: %v", want, heads)
		}
	}
	if strings.Contains(joined, "J00_") {
		t.Errorf("untracked junction J00 in headers: %v", heads)
	}

	bad, err := telemetry.NewRecorder(telemetry.Junc("J99"), 50)
	if err != nil {
		t.Fatal(err)
	}
	err = e.InstallTelemetry(bad)
	if err == nil || !strings.Contains(err.Error(), `"J99"`) {
		t.Fatalf("unknown junction error = %v", err)
	}
}

// TestTelemetryFullTracksEveryJunction checks the full spec resolves
// the whole junction table.
func TestTelemetryFullTracksEveryJunction(t *testing.T) {
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Full(), 50)
	juncs := 0
	for _, n := range e.Network().Nodes {
		if n.Kind == network.JunctionNode {
			juncs++
		}
	}
	// 8 network columns + 6 per junction.
	if got, want := len(rec.Headers()), 8+6*juncs; got != want {
		t.Fatalf("full spec exports %d columns, want %d (%d junctions)", got, want, juncs)
	}
}

// TestTelemetryUninstall checks nil uninstalls and the accessor
// reflects it.
func TestTelemetryUninstall(t *testing.T) {
	e := snapTestEngine(t)
	if e.Telemetry() != nil {
		t.Fatal("fresh engine reports a recorder")
	}
	telemTestRecorder(t, e, telemetry.Net(), 50)
	if err := e.InstallTelemetry(nil); err != nil {
		t.Fatal(err)
	}
	if e.Telemetry() != nil {
		t.Fatal("uninstall left a recorder")
	}
	e.Run(10) // must not flush into anything
}

// TestTelemetryWrapConsistency runs an instrumented engine well past a
// deliberately tiny ring capacity and checks the overwrite-oldest
// window stays consistent with live engine state: the retained tail is
// the newest samples, the final queued sample equals both the
// incremental netQueued counter (via CheckInvariants, which
// cross-checks it against the recorder) and a from-scratch recount of
// the approach queues over the lanes.
func TestTelemetryWrapConsistency(t *testing.T) {
	const ringCap, steps = 16, 120
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Net(), ringCap)
	e.Run(steps)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != ringCap || rec.FirstStep() != steps-ringCap {
		t.Fatalf("wrapped window: len %d first %d, want %d, %d",
			rec.Len(), rec.FirstStep(), ringCap, steps-ringCap)
	}
	queued := 0
	for _, rd := range e.Network().Roads {
		queued += e.ApproachQueue(rd.ID)
	}
	q := rec.NetQueued()
	if int(q[len(q)-1]) != queued {
		t.Fatalf("final wrapped sample %g, recount says %d", q[len(q)-1], queued)
	}
	// Keep stepping one mini-slot at a time across several more wraps:
	// the invariant cross-check must hold at every step boundary, not
	// just the horizon.
	for i := 0; i < 2*ringCap; i++ {
		e.Run(1)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d past wrap: %v", steps+i+1, err)
		}
	}
}

// TestTelemetryJunctionsSamplePostStep pins the instant the junction
// channels sample (DESIGN.md §15): the state the step left, like the
// network channels. Every link of the 2×2 grid belongs to one junction
// and every queued vehicle waits on some link, so the junctions'
// queued channels must sum to the network's queued channel at every
// step. Read from the truth the next sense substep refreshes, they
// summed to the previous step's queue.
func TestTelemetryJunctionsSamplePostStep(t *testing.T) {
	const steps = 600
	e := snapTestEngine(t)
	rec := telemTestRecorder(t, e, telemetry.Full(), steps)
	e.Run(steps)
	cols := rec.Columns()
	const netChannels, juncChannels = 8, 6
	net := cols[2]
	mismatched := 0
	for i := range net {
		sum := 0.0
		for c := netChannels; c < len(cols); c += juncChannels {
			sum += cols[c][i]
		}
		if sum != net[i] {
			mismatched++
		}
	}
	if mismatched > 0 {
		t.Fatalf("junction queued channels sum to the network queue in %d of %d steps", steps-mismatched, steps)
	}
}
