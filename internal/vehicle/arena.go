package vehicle

import (
	"utilbp/internal/network"
	"utilbp/internal/snap"
)

// Arena is the structure-of-arrays vehicle store (DESIGN.md §16): one
// column per Vehicle field plus the pending-movement column, split into
// the hot group the serve/travel substeps touch every mini-slot (route,
// pending turn, junction counter, accumulated queue wait) and the cold
// group only spawn, admission, exit and end-of-run statistics read
// (entry road and the three lifecycle timestamps). A vehicle is
// addressed by its ID, which is simply its row index — vehicles are
// appended in spawn order and never removed, so the columns stay dense
// and the serve loop's per-vehicle updates are sequential 4- and 8-byte
// stores instead of scattered writes into 56-byte Vehicle structs.
//
// The zero value is an empty arena ready to use; Reserve pre-sizes the
// columns so the spawn path never grows a slice mid-run. The arena is
// engine-local mutable state — never share one across engines.
type Arena struct {
	// Hot columns (serve/travel).
	route     []RouteID
	pending   []network.Turn
	junctions []int32
	queueWait []float64
	// Cold columns (spawn/exit/statistics).
	entryRoad []network.RoadID
	spawnedAt []float64
	enteredAt []float64
	exitedAt  []float64
}

// Len returns the number of spawned vehicles.
func (a *Arena) Len() int { return len(a.route) }

// Reserve grows every column's capacity to hold at least capacity
// vehicles without further allocation. It never shrinks.
func (a *Arena) Reserve(capacity int) {
	if capacity <= cap(a.route) {
		return
	}
	a.route = append(make([]RouteID, 0, capacity), a.route...)
	a.pending = append(make([]network.Turn, 0, capacity), a.pending...)
	a.junctions = append(make([]int32, 0, capacity), a.junctions...)
	a.queueWait = append(make([]float64, 0, capacity), a.queueWait...)
	a.entryRoad = append(make([]network.RoadID, 0, capacity), a.entryRoad...)
	a.spawnedAt = append(make([]float64, 0, capacity), a.spawnedAt...)
	a.enteredAt = append(make([]float64, 0, capacity), a.enteredAt...)
	a.exitedAt = append(make([]float64, 0, capacity), a.exitedAt...)
}

// Reset empties the arena, keeping the column storage.
func (a *Arena) Reset() {
	a.route = a.route[:0]
	a.pending = a.pending[:0]
	a.junctions = a.junctions[:0]
	a.queueWait = a.queueWait[:0]
	a.entryRoad = a.entryRoad[:0]
	a.spawnedAt = a.spawnedAt[:0]
	a.enteredAt = a.enteredAt[:0]
	a.exitedAt = a.exitedAt[:0]
}

// Spawn appends a vehicle in the just-spawned state and returns its ID
// (the row index).
func (a *Arena) Spawn(entry network.RoadID, at float64, route RouteID) ID {
	id := ID(len(a.route))
	a.route = append(a.route, route)
	a.pending = append(a.pending, network.Straight)
	a.junctions = append(a.junctions, 0)
	a.queueWait = append(a.queueWait, 0)
	a.entryRoad = append(a.entryRoad, entry)
	a.spawnedAt = append(a.spawnedAt, at)
	a.enteredAt = append(a.enteredAt, Unset)
	a.exitedAt = append(a.exitedAt, Unset)
	return id
}

// Route returns the vehicle's interned route.
func (a *Arena) Route(id ID) RouteID { return a.route[id] }

// Junctions returns how many junctions the vehicle has been served
// through — the encounter index RouteTable.TurnAt resolves.
func (a *Arena) Junctions(id ID) int { return int(a.junctions[id]) }

// PendingTurn returns the movement the vehicle queued (or will queue)
// for at the junction ahead.
func (a *Arena) PendingTurn(id ID) network.Turn { return a.pending[id] }

// SetPendingTurn records the vehicle's resolved movement at the
// junction ahead.
func (a *Arena) SetPendingTurn(id ID, turn network.Turn) { a.pending[id] = turn }

// QueueWait returns the vehicle's accumulated queuing time.
func (a *Arena) QueueWait(id ID) float64 { return a.queueWait[id] }

// AddQueueWait adds accrued queuing time to the vehicle.
func (a *Arena) AddQueueWait(id ID, w float64) { a.queueWait[id] += w }

// Serve records one service event: the queuing time since the vehicle
// joined the lane, plus one junction crossed. It is the serve substep's
// single per-vehicle arena touch — two hot-column stores.
func (a *Arena) Serve(id ID, wait float64) {
	a.queueWait[id] += wait
	a.junctions[id]++
}

// Admit records the vehicle entering its entry road at time t, folding
// the spawn-queue wait into its queuing time.
func (a *Arena) Admit(id ID, t float64) {
	a.enteredAt[id] = t
	a.queueWait[id] += t - a.spawnedAt[id]
}

// Exit records the vehicle leaving the network at time t.
func (a *Arena) Exit(id ID, t float64) { a.exitedAt[id] = t }

// EntryRoad returns the road the vehicle spawned onto.
func (a *Arena) EntryRoad(id ID) network.RoadID { return a.entryRoad[id] }

// SpawnedAt returns when the arrival process generated the vehicle.
func (a *Arena) SpawnedAt(id ID) float64 { return a.spawnedAt[id] }

// EnteredAt returns when the vehicle joined its entry road, Unset while
// it still waits in the spawn queue.
func (a *Arena) EnteredAt(id ID) float64 { return a.enteredAt[id] }

// ExitedAt returns when the vehicle left the network, Unset while it is
// still inside.
func (a *Arena) ExitedAt(id ID) float64 { return a.exitedAt[id] }

// InNetwork reports whether the vehicle has entered and not yet exited.
func (a *Arena) InNetwork(id ID) bool { return a.enteredAt[id] != Unset && a.exitedAt[id] == Unset }

// Done reports whether the vehicle has left the network.
func (a *Arena) Done(id ID) bool { return a.exitedAt[id] != Unset }

// TripTime returns the vehicle's entry-to-exit duration, or Unset when
// incomplete.
func (a *Arena) TripTime(id ID) float64 {
	if a.enteredAt[id] == Unset || a.exitedAt[id] == Unset {
		return Unset
	}
	return a.exitedAt[id] - a.enteredAt[id]
}

// View materializes the vehicle's row as a Vehicle value. The copy is
// for observation — writing to it does not touch the arena.
func (a *Arena) View(id ID) Vehicle {
	return Vehicle{
		ID:        id,
		Route:     a.route[id],
		EntryRoad: a.entryRoad[id],
		SpawnedAt: a.spawnedAt[id],
		EnteredAt: a.enteredAt[id],
		ExitedAt:  a.exitedAt[id],
		QueueWait: a.queueWait[id],
		Junctions: int(a.junctions[id]),
	}
}

// Vehicles materializes the whole arena as a []Vehicle, appending to
// dst (pass nil to allocate fresh). It is the row-major observation
// bridge for statistics, trace export and tests; the simulation itself
// never materializes rows.
func (a *Arena) Vehicles(dst []Vehicle) []Vehicle {
	if need := len(dst) + a.Len(); cap(dst) < need {
		grown := make([]Vehicle, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for id := 0; id < a.Len(); id++ {
		dst = append(dst, a.View(ID(id)))
	}
	return dst
}

// SnapshotState implements snap.Snapshotter: the arena is serialized
// column-major — each column written contiguously, hot columns first —
// matching the in-memory layout (the snapshot v2 format delta of
// DESIGN.md §16). Vehicle IDs are not captured: an ID is its row index.
func (a *Arena) SnapshotState(w *snap.Writer) {
	w.Int(a.Len())
	for _, v := range a.route {
		w.Uint64(uint64(v))
	}
	for _, v := range a.pending {
		w.Int32(int32(v))
	}
	for _, v := range a.junctions {
		w.Int32(v)
	}
	for _, v := range a.queueWait {
		w.Float64(v)
	}
	for _, v := range a.entryRoad {
		w.Int(int(v))
	}
	for _, v := range a.spawnedAt {
		w.Float64(v)
	}
	for _, v := range a.enteredAt {
		w.Float64(v)
	}
	for _, v := range a.exitedAt {
		w.Float64(v)
	}
}

// RestoreState implements snap.Snapshotter, reinstating the columns a
// SnapshotState captured. Column storage is reused when it is large
// enough (the engine-reuse contract: restoring into a pooled engine
// does not reallocate its arenas).
func (a *Arena) RestoreState(r *snap.Reader) error {
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	a.route = growTo(a.route, n)
	a.pending = growTo(a.pending, n)
	a.junctions = growTo(a.junctions, n)
	a.queueWait = growTo(a.queueWait, n)
	a.entryRoad = growTo(a.entryRoad, n)
	a.spawnedAt = growTo(a.spawnedAt, n)
	a.enteredAt = growTo(a.enteredAt, n)
	a.exitedAt = growTo(a.exitedAt, n)
	for i := range a.route {
		a.route[i] = RouteID(r.Uint64())
	}
	for i := range a.pending {
		a.pending[i] = network.Turn(r.Int32())
	}
	for i := range a.junctions {
		a.junctions[i] = r.Int32()
	}
	for i := range a.queueWait {
		a.queueWait[i] = r.Float64()
	}
	for i := range a.entryRoad {
		a.entryRoad[i] = network.RoadID(r.Int())
	}
	for i := range a.spawnedAt {
		a.spawnedAt[i] = r.Float64()
	}
	for i := range a.enteredAt {
		a.enteredAt[i] = r.Float64()
	}
	for i := range a.exitedAt {
		a.exitedAt[i] = r.Float64()
	}
	return r.Err()
}

// growTo resizes a column to n elements, reusing capacity when it can.
func growTo[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
