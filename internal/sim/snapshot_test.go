package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// snapTestEngine builds a small 2×2 engine under Poisson demand with a
// real stateful controller path (the static controller is stateless, so
// a fixed phase would not exercise the controller sections).
func snapTestEngine(t *testing.T) *Engine { return newSnapTestEngine(t, false) }

// newSnapTestEngine is snapTestEngine with separate turning lanes or,
// when mixed is set, the mixed-lane extension.
func newSnapTestEngine(t testing.TB, mixed bool) *Engine {
	t.Helper()
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 2, 2
	spec.Capacity = 40
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Net:         g.Network,
		Controllers: staticFactory(1),
		Demand:      NewPoissonDemand(rng.New(7), ConstantRate(0.15)),
		Router:      StraightRouter{},
		MixedLanes:  mixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSnapshotRoundTripBytes pins the codec's inverse property at the
// engine level: restoring a snapshot and snapshotting again must
// reproduce the original bytes exactly (the snapshot doubles as a state
// hash, so any drift here breaks every equivalence test built on it).
func TestSnapshotRoundTripBytes(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(137)
	snapA := e.Snapshot()
	if err := e.Restore(snapA); err != nil {
		t.Fatalf("restore: %v", err)
	}
	snapB := e.Snapshot()
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("snapshot after restore differs: %d vs %d bytes", len(snapA), len(snapB))
	}
}

// TestSnapshotRestoreEquivalence pins the tentpole contract on one
// engine: capture at step k, run to N, then rewind to the checkpoint
// and run to N again — the two step-N snapshots must be bit-for-bit
// identical, and so must the conservation totals.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	const k, n = 83, 240
	e := snapTestEngine(t)
	e.Run(k)
	snapK := e.Snapshot()
	e.Run(n - k)
	want := e.Snapshot()
	wantTotals := e.Totals()

	if err := e.Restore(snapK); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if e.Step() != k {
		t.Fatalf("restored step=%d, want %d", e.Step(), k)
	}
	e.Run(n - k)
	got := e.Snapshot()
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run at step %d", n)
	}
	if e.Totals() != wantTotals {
		t.Fatalf("totals diverged: %+v vs %+v", e.Totals(), wantTotals)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotResetReplay checks a restored-and-resumed engine still
// resets cleanly into a bit-exact replay of the original run.
func TestSnapshotResetReplay(t *testing.T) {
	const k, n = 50, 160
	e := snapTestEngine(t)
	e.Run(n)
	want := e.Snapshot()
	if err := e.Reset(7); err != nil {
		t.Fatal(err)
	}
	e.Run(k)
	snapK := e.Snapshot()
	if err := e.Restore(snapK); err != nil {
		t.Fatalf("restore: %v", err)
	}
	e.Run(n - k)
	if got := e.Snapshot(); !bytes.Equal(want, got) {
		t.Fatal("reset replay + restore diverged from the original run")
	}
}

// TestResetWithRestoreFrom pins the ResetOptions.RestoreFrom path: a
// rewind-then-restore through ResetWith resumes identically to a direct
// Restore.
func TestResetWithRestoreFrom(t *testing.T) {
	const k, n = 61, 180
	e := snapTestEngine(t)
	e.Run(k)
	snapK := e.Snapshot()
	e.Run(n - k)
	want := e.Snapshot()

	if err := e.ResetWith(7, ResetOptions{RestoreFrom: snapK}); err != nil {
		t.Fatalf("ResetWith(RestoreFrom): %v", err)
	}
	if e.Step() != k {
		t.Fatalf("restored step=%d, want %d", e.Step(), k)
	}
	e.Run(n - k)
	if got := e.Snapshot(); !bytes.Equal(want, got) {
		t.Fatal("ResetWith(RestoreFrom) resume diverged")
	}
}

// TestChangeSetEmptyBetweenSteps pins the inter-step fact the snapshot
// format relies on: the sensor's link list is empty after every step,
// under either control path, although sense lists every link reading a
// dirty road there for its Sense call.
func TestChangeSetEmptyBetweenSteps(t *testing.T) {
	for _, control := range []signal.ControlMode{signal.ControlPerJunction, signal.ControlBatched} {
		g, err := network.Grid(network.DefaultGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Net:         g.Network,
			Controllers: staticFactory(1),
			Demand:      NewPoissonDemand(rng.New(7), ConstantRate(0.15)),
			Sensor:      sensing.NewConnectedVehicle(sensing.ConnectedVehicleOptions{Rate: 0.3}),
			Control:     control,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Batched() != (control == signal.ControlBatched) {
			t.Fatalf("control mode %v not in effect", control)
		}
		for step := 0; step < 300; step++ {
			e.Run(1)
			if n := len(e.listed); n != 0 {
				t.Fatalf("control %v, after step %d: %d links left in the sensor's list", control, step, n)
			}
		}
	}
}

// TestSensorFreeEngineListsNothing: the link listing belongs to the
// sensor. A sensor-free engine, under either control path, builds no
// listing state and lists no link however many roads its steps dirty;
// the first sensor install builds it, and an engine whose sensor is
// cleared again lists nothing.
func TestSensorFreeEngineListsNothing(t *testing.T) {
	for _, control := range []signal.ControlMode{signal.ControlPerJunction, signal.ControlBatched} {
		g, err := network.Grid(network.DefaultGridSpec())
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Net:         g.Network,
			Controllers: staticFactory(1),
			Demand:      NewPoissonDemand(rng.New(7), ConstantRate(0.15)),
			Control:     control,
		})
		if err != nil {
			t.Fatal(err)
		}
		unlisted := func(when string) {
			t.Helper()
			if e.roadLinks != nil || e.linkSeen != nil || e.listed != nil || e.pairs != nil || e.obsRows != nil {
				t.Fatalf("control %v, %s: a sensor-free engine holds listing state", control, when)
			}
		}
		unlisted("after New")
		for step := 0; step < 300; step++ {
			e.Run(1)
			unlisted(fmt.Sprintf("after step %d", step))
		}
		if e.Totals().Entered == 0 {
			t.Fatalf("control %v: no vehicle entered, so no step dirtied a road", control)
		}

		if err := e.ResetWith(7, ResetOptions{Sensor: sensing.Perfect{}}); err != nil {
			t.Fatal(err)
		}
		if len(e.roadLinks) != len(e.rows) || len(e.linkSeen) != len(e.links) || cap(e.listed) != len(e.links) {
			t.Fatalf("control %v: a sensor install built %d road lists, %d stamps and a list of capacity %d; want %d, %d and %d",
				control, len(e.roadLinks), len(e.linkSeen), cap(e.listed), len(e.rows), len(e.links), len(e.links))
		}
		e.Run(50)
		if err := e.ResetWith(7, ResetOptions{ClearSensor: true}); err != nil {
			t.Fatal(err)
		}
		seen := slices.Clone(e.linkSeen)
		e.Run(50)
		if len(e.listed) != 0 || !slices.Equal(seen, e.linkSeen) {
			t.Fatalf("control %v: an engine whose sensor was cleared listed links", control)
		}
	}
}

// TestRestoreRejectsCorruptCount flips the low bit of the high word of
// the Poisson demand's stream count in a 137-step 2×2 snapshot, which
// adds 2³² to the count. Before counts were bounded, the restore asked
// for that many demand streams (about 100 GB) and died; it must fail
// with an error instead. The count is found from the stream: the
// demand's section occurs once, and the count follows its length word
// and the root stream's four state words.
func TestRestoreRejectsCorruptCount(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(137)
	b := e.Snapshot()
	w := snap.NewWriter(0)
	writeComponent(w, e.cfg.Demand)
	section := w.Bytes()
	at := bytes.Index(b, section)
	if at < 0 || bytes.Index(b[at+1:], section) >= 0 {
		t.Fatal("the demand section does not occur exactly once in the snapshot")
	}
	count := at + 8 + 4*8
	n := binary.LittleEndian.Uint64(b[count:])
	if n != uint64(len(e.cfg.Demand.(*PoissonDemand).streams)) {
		t.Fatalf("word at byte %d is %d, not the demand's stream count", count, n)
	}
	b[count+4] ^= 1
	err := snapTestEngine(t).Restore(b)
	if err == nil {
		t.Fatal("restore of a corrupt demand count accepted")
	}
	if want := fmt.Sprintf("corrupt count %d", n+1<<32); !strings.Contains(err.Error(), want) {
		t.Fatalf("restore failed for another reason: %v", err)
	}
}

// TestRestoreRejectsContradictoryRoad corrupts the join counts of one
// loaded road of a 137-step 2×2 engine, snapshots it and restores into
// a fresh engine. The join counts are the only road counters the
// stream carries (the others are derived from the queues,
// TestRestoreDerivesState); each corrupted stream decodes field by
// field and describes a count no run reaches or no int32 holds, so
// Restore must fail instead of resuming from it.
func TestRestoreRejectsContradictoryRoad(t *testing.T) {
	// loaded returns the first bounded road holding queued vehicles.
	loaded := func(e *Engine) int {
		for ri := range e.rows {
			if e.rows[ri].Cap > 0 && e.rows[ri].Total > 0 {
				return ri
			}
		}
		t.Fatal("no bounded road holds a queue")
		return -1
	}
	// marker stands in for a field's value so the test can find the
	// field in the stream and overwrite it there.
	const marker = 0x5a5a5a5
	cases := []struct {
		name    string
		corrupt func(row *signal.Row)
		// patch, when set, replaces the marker's 8 stream bytes with
		// this value before the restore.
		patch int64
		want  string
	}{
		{"negative-joins", func(row *signal.Row) { row.Joins[network.Right] = -1 }, 0, "join count -1"},
		{"joins-past-int32", func(row *signal.Row) { row.Joins[network.Right] = marker }, 1 << 31, "join count 2147483648"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := snapTestEngine(t)
			e.Run(137)
			if err := snapTestEngine(t).Restore(e.Snapshot()); err != nil {
				t.Fatalf("intact snapshot rejected: %v", err)
			}
			tc.corrupt(&e.rows[loaded(e)])
			b := e.Snapshot()
			if tc.patch != 0 {
				var want, with [8]byte
				binary.LittleEndian.PutUint64(want[:], marker)
				binary.LittleEndian.PutUint64(with[:], uint64(tc.patch))
				at := bytes.Index(b, want[:])
				if at < 0 || bytes.Index(b[at+1:], want[:]) >= 0 {
					t.Fatal("the marker does not occur exactly once in the stream")
				}
				copy(b[at:], with[:])
			}
			err := snapTestEngine(t).Restore(b)
			if err == nil {
				t.Fatal("restore of a contradictory road accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore failed for another reason: %v", err)
			}
		})
	}
}

// TestRestoreRejectsImpossibleCredit pins the credit invariant at the
// snapshot boundary: a credit that is NaN or outside [startDebt, µΔt+1]
// on a link of the junction's current phase, or any credit on a link
// outside it, fails Restore. Restored, a NaN or -1e9 credit would stop
// its link serving for the rest of the run, and serve, which zeroes
// inactive credits only when the phase changes, would carry an
// inactive one along.
func TestRestoreRejectsImpossibleCredit(t *testing.T) {
	cases := []struct {
		name   string
		active bool
		credit float64
	}{
		{"active-nan", true, math.NaN()},
		{"active-debt", true, -1e9},
		{"active-surplus", true, 1e9},
		{"inactive", false, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := snapTestEngine(t)
			e.Run(200)
			if err := snapTestEngine(t).Restore(e.Snapshot()); err != nil {
				t.Fatalf("intact snapshot rejected: %v", err)
			}
			js := &e.juncs[0]
			if js.current == signal.Amber {
				t.Fatal("junction 0 is in amber at step 200")
			}
			li := slices.Index(js.phaseActive[js.current-1], tc.active)
			js.credits[li] = tc.credit
			err := snapTestEngine(t).Restore(e.Snapshot())
			if err == nil {
				t.Fatalf("restore of credit %v on link %d (active %v) accepted", tc.credit, li, tc.active)
			}
			if !strings.Contains(err.Error(), "credit") {
				t.Fatalf("restore failed for another reason: %v", err)
			}
		})
	}
}

// TestRestoreRejectsObservedCountOutOfRange pins the bound on the
// sensed fields: a loop-sensed engine's snapshot whose observed Queue
// is patched to a negative int32 must not restore. Nothing
// cross-checks a sensor's readings against the roads, and every sensor
// writes a count saturated to [0, MaxInt32], so without the bound such
// a stream would restore and run on with a reading no sensor writes.
func TestRestoreRejectsObservedCountOutOfRange(t *testing.T) {
	build := func() *Engine {
		e := snapTestEngine(t)
		e.setSensor(sensing.NewLoopDetector(sensing.LoopDetectorOptions{}))
		if err := e.Reset(7); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// marker stands in for link 0's observed lane count so the test can
	// find the word in the stream and overwrite it there.
	const marker = 0x5a5a5a5
	for _, patch := range []int32{-1, -(1 << 20), math.MinInt32} {
		e := build()
		e.Run(60)
		if err := build().Restore(e.Snapshot()); err != nil {
			t.Fatalf("intact snapshot rejected: %v", err)
		}
		in, _ := e.pair(0)
		in.Queued[e.links[0].Turn] = marker
		b := e.Snapshot()
		var want, with [4]byte
		binary.LittleEndian.PutUint32(want[:], marker)
		binary.LittleEndian.PutUint32(with[:], uint32(patch))
		at := bytes.Index(b, want[:])
		if at < 0 || bytes.Index(b[at+1:], want[:]) >= 0 {
			t.Fatal("the marker does not occur exactly once in the stream")
		}
		copy(b[at:], with[:])
		err := build().Restore(b)
		if err == nil {
			t.Fatalf("observed queue %d restored", patch)
		}
		if !strings.Contains(err.Error(), "observation link 0 counts") {
			t.Fatalf("observed queue %d: restore failed for another reason: %v", patch, err)
		}
	}
}

// TestRestoreBitFlips flips the low bit of every byte of a 137-step 2×2
// snapshot, one byte at a time, and restores each stream. No flip may
// panic Restore or the 20 steps after it, and no stream Restore accepts
// may fail the invariants after those steps. The v4 stream of this run
// has 12 820 bytes, of which 3 773 flips are rejected and 9 047
// accepted; the v3 stream had 20 205, and 198 of its 10 555 accepted
// flips failed the invariants within the 20 steps.
func TestRestoreBitFlips(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(137)
	b := e.Snapshot()
	bits := make([]int, len(b))
	for i := range bits {
		bits[i] = 8 * i
	}
	rejected, accepted := FlipSweep(t, snapTestEngine(t), 7, b, bits)
	t.Logf("%d bytes: %d flips rejected, %d accepted", len(b), rejected, accepted)
}

// TestRoadRowIsOneCacheLine pins the engine's counter row at 64 bytes,
// so a slab that starts on a cache line keeps every row on one line.
func TestRoadRowIsOneCacheLine(t *testing.T) {
	var e Engine
	if n := unsafe.Sizeof(e.rows[:1][0]); n != 64 {
		t.Fatalf("a road row is %d bytes, want 64", n)
	}
}

// TestSnapshotRejectsMismatch checks the structural fingerprint guards:
// foreign bytes, truncation and wrong-shaped engines all fail loudly
// instead of silently corrupting state.
func TestSnapshotRejectsMismatch(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(40)
	snap := e.Snapshot()

	if err := e.Restore(nil); err == nil {
		t.Fatal("restore of empty stream accepted")
	}
	if err := e.Restore(snap[:16]); err == nil {
		t.Fatal("restore of truncated stream accepted")
	}
	junk := append([]byte(nil), snap...)
	junk[0] ^= 0xff
	if err := e.Restore(junk); err == nil {
		t.Fatal("restore of corrupted magic accepted")
	}

	other, err := New(Config{
		Net:         grid1x1(t).Network,
		Controllers: staticFactory(1),
		Demand:      NewPoissonDemand(rng.New(7), ConstantRate(0.15)),
		Router:      StraightRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = other.Restore(snap)
	if err == nil {
		t.Fatal("restore into a differently shaped engine accepted")
	}
	if !strings.Contains(err.Error(), "roads") {
		t.Fatalf("fingerprint error %q does not name the mismatch", err)
	}
	// The rejecting engine is still usable: the fingerprint check runs
	// before any state is touched.
	other.Run(10)
	if err := other.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministicBytes pins that two independently built,
// identically configured engines produce identical snapshot bytes after
// identical runs — the property that lets equivalence tests compare
// engines by snapshot instead of walking state.
func TestSnapshotDeterministicBytes(t *testing.T) {
	a := snapTestEngine(t)
	b := snapTestEngine(t)
	a.Run(120)
	b.Run(120)
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("identically configured engines produced different snapshots")
	}
}

// TestSnapshotMixedLanes runs the round-trip equivalence under the
// head-of-line-blocking extension, whose mixed lane and per-movement
// membership counters take a distinct serialization path.
func TestSnapshotMixedLanes(t *testing.T) {
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 2, 2
	spec.Capacity = 40
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Engine {
		e, err := New(Config{
			Net:         g.Network,
			Controllers: staticFactory(1),
			Demand:      NewPoissonDemand(rng.New(11), ConstantRate(0.15)),
			Router:      StraightRouter{},
			MixedLanes:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	const k, n = 70, 200
	e := build()
	e.Run(k)
	snapK := e.Snapshot()
	e.Run(n - k)
	want := e.Snapshot()
	if err := e.Restore(snapK); err != nil {
		t.Fatalf("restore: %v", err)
	}
	e.Run(n - k)
	if got := e.Snapshot(); !bytes.Equal(want, got) {
		t.Fatal("mixed-lanes resume diverged")
	}
}

// TestSnapshotHooksDiscarded pins the Reset-like hook contract: restore
// drops registered hooks, so a recorder from the interrupted run never
// fires into the resumed one.
func TestSnapshotHooksDiscarded(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(30)
	snap := e.Snapshot()
	fired := 0
	e.AddHooks(Hooks{Phase: func(network.NodeID, int, signal.Phase) { fired++ }})
	if err := e.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	e.Run(10)
	if fired != 0 {
		t.Fatalf("discarded hook fired %d times", fired)
	}
}

// TestSnapshotPreservesPhase spot-checks a restored observable against
// the engine API (snapshot equality already implies it; this guards the
// accessor path itself).
func TestSnapshotPreservesPhase(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(90)
	var phases []signal.Phase
	for _, nid := range junctionNodes(e) {
		phases = append(phases, e.CurrentPhase(nid))
	}
	snap := e.Snapshot()
	e.Run(50)
	if err := e.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i, nid := range junctionNodes(e) {
		if p := e.CurrentPhase(nid); p != phases[i] {
			t.Fatalf("junction %d phase %d after restore, want %d", nid, p, phases[i])
		}
	}
}

// junctionNodes lists the engine's junction node IDs.
func junctionNodes(e *Engine) []network.NodeID {
	var out []network.NodeID
	for i := range e.juncs {
		out = append(out, e.juncs[i].j.Node)
	}
	return out
}
