package vehicle

import (
	"bytes"
	"reflect"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/snap"
)

// arenaModel is the row-major reference the SoA arena is checked
// against: a plain []Vehicle mutated through the same lifecycle the
// engine drives (spawn → admit → serve* → exit), with the arena's
// column updates mirrored field-for-field.
type arenaModel []Vehicle

func (m *arenaModel) spawn(entry network.RoadID, at float64, route RouteID) ID {
	id := ID(len(*m))
	*m = append(*m, New(id, entry, at, route))
	return id
}

func (m arenaModel) admit(id ID, t float64) {
	v := &m[id]
	v.EnteredAt = t
	v.QueueWait += t - v.SpawnedAt
}

func (m arenaModel) serve(id ID, wait float64) {
	v := &m[id]
	v.QueueWait += wait
	v.Junctions++
}

// TestArenaLifecycleProperty drives random spawn/admit/serve/exit/
// set-pending-turn interleavings through the arena and the []Vehicle
// model in lockstep, checking after every operation that View and the
// hot-column getters agree with the model row. Vehicles only ever move
// forward through the lifecycle (as in the engine), but the order in
// which different vehicles progress is arbitrary.
func TestArenaLifecycleProperty(t *testing.T) {
	turns := []network.Turn{network.Left, network.Straight, network.Right}
	for _, seed := range []uint64{1, 2, 3, 0xA2E7A} {
		src := rng.New(seed)
		var a Arena
		var m arenaModel
		// admitted/exited track lifecycle stage per id for op selection.
		var admitted, exited []bool
		tm := 0.0
		for op := 0; op < 2000; op++ {
			tm += src.Float64()
			switch k := src.Intn(6); {
			case k == 0 || len(m) == 0:
				route := RouteID(src.Intn(5))
				id := a.Spawn(network.RoadID(src.Intn(40)), tm, route)
				mid := m.spawn(a.EntryRoad(id), tm, route)
				if id != mid || int(id) != len(m)-1 {
					t.Fatalf("seed %d: spawn ids diverge: arena %d, model %d", seed, id, mid)
				}
				admitted = append(admitted, false)
				exited = append(exited, false)
			case k == 1:
				id := ID(src.Intn(len(m)))
				if admitted[id] {
					continue
				}
				a.Admit(id, tm)
				m.admit(id, tm)
				admitted[id] = true
			case k == 2:
				id := ID(src.Intn(len(m)))
				if !admitted[id] || exited[id] {
					continue
				}
				wait := src.Float64() * 30
				a.Serve(id, wait)
				m.serve(id, wait)
			case k == 3:
				id := ID(src.Intn(len(m)))
				if !admitted[id] || exited[id] {
					continue
				}
				a.Exit(id, tm)
				m[id].ExitedAt = tm
				exited[id] = true
			case k == 4:
				id := ID(src.Intn(len(m)))
				turn := turns[src.Intn(len(turns))]
				a.SetPendingTurn(id, turn)
				if a.PendingTurn(id) != turn {
					t.Fatalf("seed %d: SetPendingTurn did not stick", seed)
				}
			default:
				id := ID(src.Intn(len(m)))
				w := src.Float64() * 5
				a.AddQueueWait(id, w)
				m[id].QueueWait += w
			}
			if a.Len() != len(m) {
				t.Fatalf("seed %d: arena holds %d vehicles, model %d", seed, a.Len(), len(m))
			}
			id := ID(src.Intn(len(m)))
			if got, want := a.View(id), m[id]; got != want {
				t.Fatalf("seed %d op %d: View(%d) = %+v, model %+v", seed, op, id, got, want)
			}
			if a.InNetwork(id) != m[id].InNetwork() || a.Done(id) != m[id].Done() ||
				a.TripTime(id) != m[id].TripTime() {
				t.Fatalf("seed %d op %d: lifecycle predicates diverge for %d", seed, op, id)
			}
		}
		// Full materialization agrees row-for-row (View copies carry the
		// pending turn out-of-band of Vehicle, so clear it from neither —
		// Vehicle has no pending field; compare everything it has).
		got := a.Vehicles(nil)
		if !reflect.DeepEqual(got, []Vehicle(m)) {
			t.Fatalf("seed %d: Vehicles() diverges from the model", seed)
		}
		// Counts agrees with the model's lifecycle and junction counts.
		var want [3]int
		for _, v := range m {
			if v.EnteredAt != Unset {
				want[0]++
			}
			if v.Done() {
				want[1]++
			}
			want[2] += v.Junctions
		}
		if e, x, s := a.Counts(); [3]int{e, x, s} != want {
			t.Fatalf("seed %d: Counts() = %d, %d, %d, model %v", seed, e, x, s, want)
		}
		// Vehicles appends to dst without clobbering its prefix.
		pre := []Vehicle{{ID: 999}}
		both := a.Vehicles(pre)
		if len(both) != 1+a.Len() || both[0].ID != 999 || !reflect.DeepEqual(both[1:], got) {
			t.Fatalf("seed %d: Vehicles(dst) does not append", seed)
		}
	}
}

// TestArenaSnapshotRoundTrip pins the column-major codec: serialize a
// randomly populated arena, restore into both a fresh arena and a
// differently-sized dirty one, and require byte-identical
// re-serialization plus row-identical materialization.
func TestArenaSnapshotRoundTrip(t *testing.T) {
	src := rng.New(99)
	var a Arena
	for i := 0; i < 257; i++ {
		id := a.Spawn(network.RoadID(src.Intn(30)), src.Float64()*100, RouteID(src.Intn(7)))
		if src.Bool(0.8) {
			a.Admit(id, a.SpawnedAt(id)+src.Float64()*10)
			for n := src.Intn(4); n > 0; n-- {
				a.Serve(id, src.Float64()*20)
			}
			if src.Bool(0.5) {
				a.Exit(id, a.EnteredAt(id)+src.Float64()*200)
			}
		}
		a.SetPendingTurn(id, network.Turn(src.Intn(3)))
	}
	w := snap.NewWriter(0)
	a.SnapshotState(w)
	blob := w.Bytes()

	restored := []*Arena{new(Arena), new(Arena)}
	// The second target starts dirty and larger, exercising the
	// storage-reuse path of RestoreState.
	for i := 0; i < 1000; i++ {
		restored[1].Spawn(0, 0, 0)
	}
	for i, b := range restored {
		r := snap.NewReader(blob)
		if err := b.RestoreState(r); err != nil {
			t.Fatalf("target %d: %v", i, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("target %d: trailing bytes: %v", i, err)
		}
		if !reflect.DeepEqual(b.Vehicles(nil), a.Vehicles(nil)) {
			t.Fatalf("target %d: restored rows diverge", i)
		}
		for id := ID(0); int(id) < b.Len(); id++ {
			if b.PendingTurn(id) != a.PendingTurn(id) {
				t.Fatalf("target %d: pending turn of %d not restored", i, id)
			}
		}
		w2 := snap.NewWriter(len(blob))
		b.SnapshotState(w2)
		if !bytes.Equal(w2.Bytes(), blob) {
			t.Fatalf("target %d: re-serialization diverges (%d vs %d bytes)", i, w2.Len(), len(blob))
		}
	}
}

// TestArenaRestoreRejectsCorruptCount: a vehicle count larger than the
// remaining stream must fail cleanly before any column is sized.
func TestArenaRestoreRejectsCorruptCount(t *testing.T) {
	w := snap.NewWriter(0)
	w.Int(1 << 40)
	var a Arena
	if err := a.RestoreState(snap.NewReader(w.Bytes())); err == nil {
		t.Fatal("corrupt count accepted")
	}
	if a.Len() != 0 {
		t.Fatalf("failed restore left %d rows behind", a.Len())
	}
}

// TestArenaRestoreBoundsColumns: a count that Count accepts, because
// it does not exceed the bytes left, but whose eight columns those
// bytes cannot hold, is refused before any column grows.
func TestArenaRestoreBoundsColumns(t *testing.T) {
	const n = 100
	w := snap.NewWriter(0)
	w.Int(n)
	for range (n + 7) / 8 {
		w.Uint64(0) // n bytes: enough for Count, not for n vehicles
	}
	var a Arena
	a.Reserve(8)
	before := [8]int{cap(a.route), cap(a.pending), cap(a.junctions), cap(a.queueWait),
		cap(a.entryRoad), cap(a.spawnedAt), cap(a.enteredAt), cap(a.exitedAt)}
	r := snap.NewReader(w.Bytes())
	if err := a.RestoreState(r); err == nil {
		t.Fatal("a count past the column bound was accepted")
	}
	after := [8]int{cap(a.route), cap(a.pending), cap(a.junctions), cap(a.queueWait),
		cap(a.entryRoad), cap(a.spawnedAt), cap(a.enteredAt), cap(a.exitedAt)}
	if after != before {
		t.Fatalf("refused restore grew the columns: capacities %v, were %v", after, before)
	}

	// The bound is exact: n vehicles' columns restore from exactly
	// n·vehicleBytes bytes.
	var full Arena
	for range n {
		full.Spawn(1, 2, StraightRoute)
	}
	w = snap.NewWriter(0)
	full.SnapshotState(w)
	if got, want := w.Len(), 8+n*vehicleBytes; got != want {
		t.Fatalf("a %d-vehicle arena writes %d bytes, want %d", n, got, want)
	}
	if err := a.RestoreState(snap.NewReader(w.Bytes())); err != nil || a.Len() != n {
		t.Fatalf("restore of %d vehicles: %v, %d rows", n, err, a.Len())
	}
}

// TestArenaResetAndReserve: Reset empties without shedding storage, and
// Reserve never shrinks or disturbs content.
func TestArenaResetAndReserve(t *testing.T) {
	var a Arena
	a.Reserve(64)
	for i := 0; i < 10; i++ {
		a.Spawn(network.RoadID(i), float64(i), StraightRoute)
	}
	before := a.Vehicles(nil)
	a.Reserve(8) // no-op: smaller than current capacity
	if !reflect.DeepEqual(a.Vehicles(nil), before) {
		t.Fatal("Reserve disturbed content")
	}
	a.Reserve(128)
	if !reflect.DeepEqual(a.Vehicles(nil), before) {
		t.Fatal("growing Reserve disturbed content")
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Reset left %d rows", a.Len())
	}
	if a.Spawn(3, 1, StraightRoute) != 0 {
		t.Fatal("ids do not restart after Reset")
	}
}
