package sim

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"utilbp/internal/queue"
	"utilbp/internal/snap"
	"utilbp/internal/vehicle"
)

// roadCounterWords is the number of 8-byte counters a road's snapshot
// record carries ahead of its queues: one join count per movement.
const roadCounterWords = numTurns

// queueSplicer rewrites the queue entries of one engine snapshot — the
// lanes, spawn queues and transit lists — and keeps every other byte,
// so a test can hand Restore queue contents no engine can hold — a
// vehicle listed twice, an ID outside the arena, a transit list out of
// arrival order — which the engine's own store could not even
// represent.
type queueSplicer struct {
	base []byte
	// spans[ri] is the byte range of road ri's six queues in base.
	spans [][2]int
	// queues holds every road's queues in stream order, queuesPerRoad
	// per road: the three turning lanes, the mixed lane, the spawn
	// queue, the transit list.
	queues [][]queue.Item
}

// newQueueSplicer snapshots e and locates each road's queues in the
// stream: flipping the low bit of a road's first join count, the first
// word of its record, changes exactly the record's first byte, and the
// queues follow its counters.
func newQueueSplicer(t testing.TB, e *Engine) *queueSplicer {
	t.Helper()
	sp := &queueSplicer{base: e.Snapshot()}
	for ri := range e.roads {
		e.rows[ri].Joins[0] ^= 1
		flipped := e.Snapshot()
		e.rows[ri].Joins[0] ^= 1
		at := 0
		for at < len(flipped) && flipped[at] == sp.base[at] {
			at++
		}
		start := at + 8*roadCounterWords
		w := snap.NewWriter(0)
		for _, l := range e.roads[ri].queues() {
			e.store.SnapshotLane(w, l)
			sp.queues = append(sp.queues, slices.Collect(e.store.Items(l)))
		}
		enc := w.Bytes()
		if start+len(enc) > len(sp.base) || !bytes.Equal(sp.base[start:start+len(enc)], enc) {
			t.Fatalf("road %d: queues not found at byte %d of the snapshot", ri, start)
		}
		sp.spans = append(sp.spans, [2]int{start, start + len(enc)})
	}
	if !bytes.Equal(sp.stream(sp.queues), sp.base) {
		t.Fatal("splicing the unchanged queues does not reproduce the snapshot")
	}
	return sp
}

// stream returns the snapshot with every road's queues replaced by
// queues, laid out like sp.queues.
func (sp *queueSplicer) stream(queues [][]queue.Item) []byte {
	out := make([]byte, 0, len(sp.base))
	prev := 0
	for ri, span := range sp.spans {
		out = append(out, sp.base[prev:span[0]]...)
		w := snap.NewWriter(0)
		for _, items := range queues[ri*queuesPerRoad : (ri+1)*queuesPerRoad] {
			w.Int(len(items))
			for _, it := range items {
				w.Int(it.Vehicle)
				w.Float64(it.EnqueuedAt)
			}
		}
		out = append(out, w.Bytes()...)
		prev = span[1]
	}
	return append(out, sp.base[prev:]...)
}

// clone returns a deep copy of the splicer's queues to edit.
func (sp *queueSplicer) clone() [][]queue.Item {
	qs := make([][]queue.Item, len(sp.queues))
	for i, q := range sp.queues {
		qs[i] = slices.Clone(q)
	}
	return qs
}

// TestRestoreRejectsQueueMembership rewrites the queues of a 137-step
// 2×2 snapshot so they no longer list each vehicle exactly where the
// arena puts it, list more vehicles than the queue may hold, or list a
// road's vehicles in transit in an order or at a time no run produces.
// Each stream decodes field by field, and the membership and transit
// cases keep every count, so only the checks on the queues can refuse
// them: restored, the duplicate would be served twice while the
// vehicle it displaced, listed nowhere, never left, and a vehicle
// listed behind a later arrival would wait for it.
func TestRestoreRejectsQueueMembership(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(137)
	sp := newQueueSplicer(t, e)
	// The first turning lane holding two vehicles, its road's spawn
	// queue, a vehicle in transit bound for the lane's movement, the
	// first transit list whose head and tail arrive at different times,
	// and a vehicle that has left the network.
	lane, inTransit, transit := -1, -1, -1
	for q, items := range sp.queues {
		if q%queuesPerRoad < numTurns && len(items) >= 2 {
			lane = q
			break
		}
	}
	if lane < 0 {
		t.Fatal("no turning lane holds two vehicles")
	}
	spawn := lane - lane%queuesPerRoad + spawnQueue
	for q, items := range sp.queues {
		if q%queuesPerRoad != transitList {
			continue
		}
		for _, it := range items {
			if inTransit < 0 && int(e.arena.PendingTurn(vehicle.ID(it.Vehicle))) == lane%queuesPerRoad {
				inTransit = it.Vehicle
			}
		}
		if transit < 0 && len(items) >= 2 && items[0].EnqueuedAt < items[len(items)-1].EnqueuedAt {
			transit = q
		}
	}
	if inTransit < 0 {
		t.Fatal("no vehicle in transit for the lane's movement")
	}
	if transit < 0 {
		t.Fatal("no transit list holds two arrival times")
	}
	exited := -1
	for v := 0; v < e.arena.Len() && exited < 0; v++ {
		if e.arena.Done(vehicle.ID(v)) {
			exited = v
		}
	}
	if exited < 0 {
		t.Fatal("no vehicle has exited")
	}
	// second rewrites the lane's second entry to vehicle v.
	second := func(v int) func(qs [][]queue.Item) {
		return func(qs [][]queue.Item) { qs[lane][1].Vehicle = v }
	}
	capacity := e.net.Roads[lane/queuesPerRoad].Capacity
	waiting := e.totals.Spawned - e.totals.Entered
	latest := e.Time() + e.roads[transit/queuesPerRoad].travel
	cases := []struct {
		name string
		edit func(qs [][]queue.Item)
		want string
	}{
		{"duplicate", second(sp.queues[lane][0].Vehicle), "another queue lists too"},
		{"lane-and-travel-heap", second(inTransit), "another queue lists too"},
		{"outside-arena", second(e.arena.Len() + 5), "outside arena"},
		{"negative-id", second(-1), "outside arena"},
		{"exited-vehicle", second(exited), "cannot wait there"},
		// The length bounds apply before any pair is read.
		{"lane-past-capacity", func(qs [][]queue.Item) {
			for len(qs[lane]) <= capacity {
				qs[lane] = append(qs[lane], qs[lane][0])
			}
		}, fmt.Sprintf("%d vehicles queued, at most %d allowed", capacity+1, capacity)},
		{"spawn-queue-past-waiting", func(qs [][]queue.Item) {
			for len(qs[spawn]) <= waiting {
				qs[spawn] = append(qs[spawn], qs[lane][0])
			}
		}, fmt.Sprintf("spawn queue: queue: %d vehicles queued, at most %d allowed", waiting+1, waiting)},
		// A transit list must be one enterRoad can build: arrival times
		// that never decrease head to tail, none past now plus the
		// road's travel time, and at most W vehicles.
		{"transit-swapped", func(qs [][]queue.Item) {
			q := qs[transit]
			q[0], q[len(q)-1] = q[len(q)-1], q[0]
		}, "behind one arriving at"},
		{"transit-past-travel", func(qs [][]queue.Item) {
			q := qs[transit]
			q[len(q)-1].EnqueuedAt = math.Nextafter(latest, math.Inf(1))
		}, "after now plus travel time"},
		{"transit-past-capacity", func(qs [][]queue.Item) {
			for len(qs[transit]) <= capacity {
				qs[transit] = append(qs[transit], qs[transit][0])
			}
		}, fmt.Sprintf("transit list: queue: %d vehicles queued, at most %d allowed", capacity+1, capacity)},
	}
	if err := snapTestEngine(t).Restore(sp.stream(sp.queues)); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qs := sp.clone()
			tc.edit(qs)
			err := snapTestEngine(t).Restore(sp.stream(qs))
			if err == nil {
				t.Fatal("restore of the rewritten queues accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore failed for another reason: %v", err)
			}
		})
	}
}

// FuzzRestoreQueues rewrites the queue entries — lanes, spawn queues
// and transit lists — of a 137-step 2×2 snapshot, with separate turning
// lanes or the mixed lane: vehicle IDs (inside the arena, outside it,
// negative), duplicates, swaps, moves between queues and shifted
// times. Whatever the edit, Restore either fails or yields an engine
// that passes CheckInvariants and keeps passing them over 100 more
// steps; no input may panic or hang.
func FuzzRestoreQueues(f *testing.F) {
	splicers := [2]*queueSplicer{}
	for i, mixed := range []bool{false, true} {
		e := newSnapTestEngine(f, mixed)
		e.Run(137)
		splicers[i] = newQueueSplicer(f, e)
	}
	f.Add(false, []byte{1, 0, 0, 1})             // duplicate the first queued vehicle
	f.Add(false, []byte{0, 3, 1, 255})           // an ID outside the arena
	f.Add(false, []byte{2, 0, 0, 4})             // move a vehicle to another queue
	f.Add(true, []byte{3, 0, 0, 1, 0, 2, 7, 90}) // swap, then rewrite
	f.Add(false, []byte{4, 5, 0, 200})           // shift a time later
	f.Add(true, []byte("9001"))                  // move a vehicle into a turning lane the mixed mode never serves
	f.Fuzz(func(t *testing.T, mixed bool, ops []byte) {
		sp := splicers[0]
		if mixed {
			sp = splicers[1]
		}
		qs := sp.clone()
		// nonEmpty picks a non-empty queue from x, -1 when all are.
		nonEmpty := func(x byte) int {
			for i := range qs {
				if q := (int(x) + i) % len(qs); len(qs[q]) > 0 {
					return q
				}
			}
			return -1
		}
		for i := 0; i+3 < len(ops); i += 4 {
			kind, a, b, c := ops[i]%5, ops[i+1], ops[i+2], ops[i+3]
			src := nonEmpty(a)
			if src < 0 {
				break
			}
			pos := int(b) % len(qs[src])
			dst := nonEmpty(c)
			switch kind {
			case 0: // rewrite a vehicle ID
				qs[src][pos].Vehicle = int(c) - 8
			case 1: // list a queued vehicle a second time, in place of another
				qs[dst][int(c)%len(qs[dst])].Vehicle = qs[src][pos].Vehicle
			case 2: // move a vehicle to any queue
				it := qs[src][pos]
				qs[src] = slices.Delete(qs[src], pos, pos+1)
				to := int(c) % len(qs)
				qs[to] = slices.Insert(qs[to], int(b)%(len(qs[to])+1), it)
			case 3: // swap two queued vehicles
				j := int(c) % len(qs[dst])
				qs[src][pos], qs[dst][j] = qs[dst][j], qs[src][pos]
			case 4: // shift a time by up to 32 s either way
				qs[src][pos].EnqueuedAt += float64(int(c)-128) / 4
			}
		}
		e := newSnapTestEngine(t, mixed)
		if err := e.Restore(sp.stream(qs)); err != nil {
			return
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("restored engine fails its invariants: %v", err)
		}
		e.Run(100)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("restored engine fails its invariants 100 steps on: %v", err)
		}
	})
}
