package queue

import "testing"

// TestLaneClampChurnKeepsFIFOAndStorage models an incident clamping a
// road's effective capacity (internal/event): admission is throttled
// while the lane keeps queuing through the engine's store, so churning
// the queue across the clamp — occupancy dropping to the reduced level,
// vehicles re-queuing behind the ones still waiting, then refilling to
// the full bound after the revert — must preserve FIFO order and
// enqueue times and never grow the store.
func TestLaneClampChurnKeepsFIFOAndStorage(t *testing.T) {
	const full, reduced = 48, 19
	var s Store
	s.Reserve(full)
	size := len(s.links)
	var l Lane
	next, expect := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			s.Push(&l, int32(next%full), float64(next))
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			it, ok := s.Pop(&l)
			if !ok {
				t.Fatalf("pop %d: lane empty", expect)
			}
			if it.Vehicle != expect%full || it.EnqueuedAt != float64(expect) {
				t.Fatalf("FIFO broken: got vehicle %d (at %v), want %d (at %d)", it.Vehicle, it.EnqueuedAt, expect%full, expect)
			}
			expect++
		}
	}

	push(full) // pre-incident: loaded to the bound
	// Incident window: drain to the reduced level, then churn at that
	// level long enough to cycle every vehicle through the lane many
	// times over.
	pop(full - reduced)
	for round := 0; round < 10; round++ {
		pop(reduced)
		push(reduced)
	}
	// Revert: refill to the pre-disruption bound and drain completely.
	push(full - reduced)
	pop(full)
	if l.Len() != 0 {
		t.Fatalf("lane not empty after drain: %d", l.Len())
	}
	if len(s.links) != size {
		t.Fatalf("store changed across the clamp: %d -> %d links", size, len(s.links))
	}
}

// TestLaneClampChurnAllocs is the allocation half of the contract: the
// clamp-churn-revert cycle above runs without a single heap allocation
// once the store covers the lane's vehicles, no matter which vehicle
// heads the lane when the cycle starts.
func TestLaneClampChurnAllocs(t *testing.T) {
	const full, reduced = 48, 19
	var s Store
	s.Reserve(full)
	var l Lane
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < full; i++ {
			s.Push(&l, int32(i), 0)
		}
		for i := 0; i < full-reduced; i++ {
			s.Pop(&l)
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < reduced; i++ {
				it, _ := s.Pop(&l)
				s.Push(&l, int32(it.Vehicle), 1)
			}
		}
		for l.Len() > 0 {
			s.Pop(&l)
		}
	})
	if allocs != 0 {
		t.Fatalf("clamp churn allocates: %v allocs per cycle, want 0", allocs)
	}
}

// TestTravelClampChurnKeepsOrderAndStorage is the transit-list
// counterpart: a road's in-transit vehicles share the engine's store
// with its lanes, and cycling the list between the reduced and full
// occupancy levels of an incident must keep arrivals draining in time
// order, without growing the store or allocating.
func TestTravelClampChurnKeepsOrderAndStorage(t *testing.T) {
	const full, reduced = 48, 19
	var s Store
	s.Reserve(full)
	size := len(s.links)
	var l Lane
	clock, next := 0.0, 0
	add := func(n int) {
		for i := 0; i < n; i++ {
			clock++
			s.Push(&l, int32(next%full), clock)
			next++
		}
	}
	lastAt := 0.0
	drain := func(n int) {
		for i := 0; i < n; i++ {
			it, ok := popDue(&s, &l, clock+1)
			if !ok {
				t.Fatal("transit list empty mid-drain")
			}
			if it.EnqueuedAt < lastAt {
				t.Fatalf("time order broken: popped %v after %v", it.EnqueuedAt, lastAt)
			}
			lastAt = it.EnqueuedAt
		}
	}

	add(full)
	drain(full - reduced)
	for round := 0; round < 10; round++ {
		drain(reduced)
		add(reduced)
	}
	add(full - reduced)
	drain(full)
	if l.Len() != 0 {
		t.Fatalf("transit list not empty after drain: %d", l.Len())
	}
	if len(s.links) != size {
		t.Fatalf("store changed across the clamp: %d -> %d links", size, len(s.links))
	}

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < full; i++ {
			s.Push(&l, int32(i), float64(i))
		}
		for l.Len() > 0 {
			popDue(&s, &l, float64(full))
		}
	})
	if allocs != 0 {
		t.Fatalf("reserved transit churn allocates: %v allocs per cycle, want 0", allocs)
	}
}
