package queue

import (
	"math"
	"testing"
	"testing/quick"
)

// laneItems returns the lane's contents, head first.
func laneItems(s *Store, l *Lane) []Item {
	var items []Item
	for it := range s.Items(l) {
		items = append(items, it)
	}
	return items
}

func TestLaneFIFO(t *testing.T) {
	var s Store
	var l Lane
	for i := 0; i < 10; i++ {
		s.Push(&l, int32(i), float64(i))
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 10; i++ {
		it, ok := s.Pop(&l)
		if !ok || it.Vehicle != i || it.EnqueuedAt != float64(i) {
			t.Fatalf("pop %d: %+v ok=%v", i, it, ok)
		}
	}
	if _, ok := s.Pop(&l); ok {
		t.Fatal("pop from empty lane succeeded")
	}
}

func TestLanePeek(t *testing.T) {
	var s Store
	var l Lane
	if _, ok := s.Peek(&l); ok {
		t.Fatal("peek on empty lane succeeded")
	}
	s.Push(&l, 7, 1.5)
	it, ok := s.Peek(&l)
	if !ok || it.Vehicle != 7 || it.EnqueuedAt != 1.5 {
		t.Fatalf("peek: %+v ok=%v", it, ok)
	}
	if l.Len() != 1 {
		t.Fatal("peek consumed the item")
	}
}

// TestLaneRingBounded pins that a lane owns no storage: sustained
// push/pop traffic that re-queues the same few vehicles, as vehicles
// move from lane to lane in a run, keeps FIFO order however often the
// head passes the tail's old position, and the store never grows past
// the highest vehicle ID it has seen.
func TestLaneRingBounded(t *testing.T) {
	const pool = 8
	var s Store
	var l Lane
	next, expect := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 5; i++ {
			s.Push(&l, int32(next%pool), float64(next))
			next++
		}
		for i := 0; i < 5; i++ {
			it, ok := s.Pop(&l)
			if !ok || it.Vehicle != expect%pool || it.EnqueuedAt != float64(expect) {
				t.Fatalf("round %d: got %+v want vehicle %d", round, it, expect%pool)
			}
			expect++
		}
	}
	if len(s.links) > 2*pool {
		t.Fatalf("store grew to %d links for %d vehicles", len(s.links), pool)
	}
}

// TestLaneReserveNeverGrows pins the reservation contract: a store
// reserved for n vehicle IDs never allocates or grows while its lanes
// queue those vehicles, whatever the lane length, and a smaller
// reservation never shrinks it.
func TestLaneReserveNeverGrows(t *testing.T) {
	const n = 32
	var s Store
	s.Reserve(n)
	if len(s.links) < n {
		t.Fatalf("store covers %d vehicles after Reserve(%d)", len(s.links), n)
	}
	size := len(s.links)
	var l Lane
	next, expect := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		// The whole reservation in one lane, then churn across it.
		for i := 0; i < n; i++ {
			s.Push(&l, int32(next%n), 0)
			next++
		}
		for i := 0; i < n; i++ {
			it, _ := s.Pop(&l)
			if it.Vehicle != expect%n {
				t.Fatalf("got %+v want %d", it, expect%n)
			}
			expect++
		}
	})
	if allocs != 0 {
		t.Fatalf("lane churn within the reservation made %v allocations, want 0", allocs)
	}
	if len(s.links) != size {
		t.Fatalf("reserved store regrew from %d to %d", size, len(s.links))
	}
	s.Reserve(4)
	if len(s.links) != size {
		t.Fatal("Reserve shrank the store")
	}
}

// TestLaneReserveKeepsContents pins that growing the store under
// queued lanes keeps every lane's order and enqueue times.
func TestLaneReserveKeepsContents(t *testing.T) {
	var s Store
	var l Lane
	for i := 0; i < 10; i++ {
		s.Push(&l, int32(i), float64(i))
	}
	for i := 0; i < 4; i++ {
		s.Pop(&l)
	}
	s.Push(&l, 10, 10)
	s.Reserve(64)
	for want := 4; want <= 10; want++ {
		it, ok := s.Pop(&l)
		if !ok || it.Vehicle != want || it.EnqueuedAt != float64(want) {
			t.Fatalf("after Reserve: got %+v ok=%v, want vehicle %d", it, ok, want)
		}
	}
}

// TestLaneAtAndReset pins the walk (the successor of indexing a ring
// by position) and Reset: a walk sees the queue head to tail without
// consuming it, and a reset lane is empty.
func TestLaneAtAndReset(t *testing.T) {
	var s Store
	var l Lane
	s.Push(&l, 1, 0)
	s.Push(&l, 2, 0.5)
	s.Push(&l, 3, 0.75)
	s.Pop(&l)
	got := laneItems(&s, &l)
	if len(got) != 2 || got[0] != (Item{2, 0.5}) || got[1] != (Item{3, 0.75}) || l.Len() != 2 {
		t.Fatalf("walk = %+v, len %d", got, l.Len())
	}
	l.Reset()
	if l.Len() != 0 || len(laneItems(&s, &l)) != 0 {
		t.Fatal("Reset did not empty the lane")
	}
	if _, ok := s.Pop(&l); ok {
		t.Fatal("pop after Reset succeeded")
	}
	if _, ok := l.Head(); ok {
		t.Fatal("Head after Reset succeeded")
	}
}

func TestLanePropertyFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		var s Store
		var l Lane
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				s.Push(&l, int32(next), 0)
				next++
			} else if it, ok := s.Pop(&l); ok {
				if it.Vehicle != expect {
					return false
				}
				expect++
			}
			if l.Len() != next-expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// popDue pops the head of transit list l when it reaches the stop line
// by deadline, as the engine's travel substep does: Peek, then Pop.
func popDue(s *Store, l *Lane, deadline float64) (Item, bool) {
	if it, ok := s.Peek(l); !ok || it.EnqueuedAt > deadline {
		return Item{}, false
	}
	return s.Pop(l)
}

// TestTravelOrdering pins a road's transit list: vehicles entering a
// road at non-decreasing clocks with one travel time reach the stop
// line in the order they entered, and the list releases them in that
// order.
func TestTravelOrdering(t *testing.T) {
	const travel = 21.6
	var s Store
	var l Lane
	for v, clock := range []float64{0, 1, 1, 2, 5} {
		s.Push(&l, int32(v), clock+travel)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	for want := 0; want < 5; want++ {
		it, ok := popDue(&s, &l, 100)
		if !ok || it.Vehicle != want {
			t.Fatalf("got %+v, want vehicle %d", it, want)
		}
	}
}

// TestTravelDeadline pins the due test of the travel substep: a
// vehicle arriving after the deadline stays in transit, one arriving
// exactly at it leaves.
func TestTravelDeadline(t *testing.T) {
	var s Store
	var l Lane
	s.Push(&l, 1, 10)
	if _, ok := popDue(&s, &l, 9.99); ok {
		t.Fatal("popped a vehicle before its arrival time")
	}
	if it, ok := popDue(&s, &l, 10); !ok || it.Vehicle != 1 {
		t.Fatal("vehicle due exactly at deadline not popped")
	}
	if _, ok := popDue(&s, &l, 100); ok {
		t.Fatal("popped from an empty transit list")
	}
}

// TestTravelTieBreakInsertionOrder pins that vehicles with equal
// arrival times leave in the order they were pushed, the order the
// heap's tie-break sequence gave them.
func TestTravelTieBreakInsertionOrder(t *testing.T) {
	var s Store
	var l Lane
	for i := 0; i < 20; i++ {
		s.Push(&l, int32(i), 7) // identical arrival times
	}
	for i := 0; i < 20; i++ {
		it, ok := popDue(&s, &l, 7)
		if !ok || it.Vehicle != i {
			t.Fatalf("tie-break violated at %d: got %+v", i, it)
		}
	}
}

// TestTravelPeek pins that Peek returns the earliest arrival, the head,
// without consuming it.
func TestTravelPeek(t *testing.T) {
	var s Store
	var l Lane
	if _, ok := s.Peek(&l); ok {
		t.Fatal("peek on an empty transit list succeeded")
	}
	s.Push(&l, 9, 2)
	s.Push(&l, 4, 3)
	it, ok := s.Peek(&l)
	if !ok || it.Vehicle != 9 || it.EnqueuedAt != 2 || l.Len() != 2 {
		t.Fatalf("peek: %+v len=%d", it, l.Len())
	}
}

// TestTravelPropertySorted pins that a transit list fed as the engine
// feeds it — arrival times clock + travel at non-decreasing clocks —
// releases every vehicle, in non-decreasing time order.
func TestTravelPropertySorted(t *testing.T) {
	f := func(steps []uint8, travel uint16) bool {
		var s Store
		var l Lane
		clock := 0.0
		for i, dt := range steps {
			clock += float64(dt % 4)
			s.Push(&l, int32(i), clock+float64(travel)/8)
		}
		last, n := math.Inf(-1), 0
		for {
			it, ok := popDue(&s, &l, math.Inf(1))
			if !ok {
				break
			}
			if it.EnqueuedAt < last || it.Vehicle != n {
				return false
			}
			last = it.EnqueuedAt
			n++
		}
		return n == len(steps) && l.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
