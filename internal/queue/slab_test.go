package queue

import (
	"slices"
	"testing"

	"utilbp/internal/snap"
)

// TestSlabLaneOverflowKeepsNeighbour pins that a lane never disturbs
// another lane on the same store: lane a, pushed far past what b holds
// and past the store's reservation, grows the store under b, and b
// keeps its vehicles, order and enqueue times, also across churn.
func TestSlabLaneOverflowKeepsNeighbour(t *testing.T) {
	const held = 4
	var s Store
	s.Reserve(2 * held)
	var a, b Lane
	for i := 0; i <= held; i++ {
		s.Push(&b, int32(i), float64(i))
	}
	s.Pop(&b)
	s.Pop(&b)
	want := laneItems(&s, &b)

	const base = 100
	for i := 0; i < 3*held; i++ {
		s.Push(&a, int32(base+i), float64(i))
	}
	if len(s.links) < base+3*held {
		t.Fatalf("store covers %d vehicles, want at least %d", len(s.links), base+3*held)
	}
	for i, it := range laneItems(&s, &a) {
		if it.Vehicle != base+i || it.EnqueuedAt != float64(i) {
			t.Fatalf("long lane item %d = %+v", i, it)
		}
	}
	got := laneItems(&s, &b)
	if len(got) != len(want) {
		t.Fatalf("neighbour holds %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbour item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Churn on both lanes: each keeps its own order.
	for i := 0; i < 2*held; i++ {
		ia, _ := s.Pop(&a)
		s.Push(&a, int32(ia.Vehicle), float64(300+i))
		ib, _ := s.Pop(&b)
		if ib != want[0] {
			t.Fatalf("neighbour pop %d = %+v, want %+v", i, ib, want[0])
		}
		want = append(want[1:], Item{Vehicle: ib.Vehicle, EnqueuedAt: float64(400 + i)})
		s.Push(&b, int32(ib.Vehicle), float64(400+i))
	}
	if got := laneItems(&s, &b); !slices.Equal(got, want) {
		t.Fatalf("neighbour after churn = %+v, want %+v", got, want)
	}
}

// TestSlabTravelOverflowKeepsNeighbour is the transit-list
// counterpart: a road's transit list grows the store past its
// reservation under a lane on the same store, and the lane keeps its
// vehicles, order and times; arrivals then join the lane behind them,
// as the travel substep moves them, and the list keeps the rest in
// order.
func TestSlabTravelOverflowKeepsNeighbour(t *testing.T) {
	const capacity = 4
	var s Store
	s.Reserve(2 * capacity)
	var transit, lane Lane
	for i := 0; i < capacity; i++ {
		s.Push(&lane, int32(100+i), float64(i))
	}
	want := laneItems(&s, &lane)
	for i := 0; i < 3*capacity; i++ {
		s.Push(&transit, int32(i), float64(10+i))
	}
	if got := laneItems(&s, &lane); !slices.Equal(got, want) {
		t.Fatalf("lane after the transit pushes = %+v, want %+v", got, want)
	}
	for i := 0; i < capacity; i++ {
		it, ok := popDue(&s, &transit, float64(10+capacity-1))
		if !ok || it.Vehicle != i {
			t.Fatalf("arrival %d = %+v, %v", i, it, ok)
		}
		s.Push(&lane, int32(it.Vehicle), it.EnqueuedAt)
		want = append(want, it)
	}
	if _, ok := popDue(&s, &transit, float64(10+capacity-1)); ok {
		t.Fatal("released an arrival past the deadline")
	}
	if got := laneItems(&s, &lane); !slices.Equal(got, want) {
		t.Fatalf("lane after the arrivals = %+v, want %+v", got, want)
	}
	for i, it := range laneItems(&s, &transit) {
		if v := capacity + i; it != (Item{Vehicle: v, EnqueuedAt: float64(10 + v)}) {
			t.Fatalf("transit item %d = %+v", i, it)
		}
	}
}

// TestSlabTravelRestoreAllocatesNothing pins that restoring a transit
// list — decoding its pairs into a staging buffer of the list's size
// and pushing them onto a store reserved for its vehicles, as Restore
// does — allocates nothing and reproduces the list.
func TestSlabTravelRestoreAllocatesNothing(t *testing.T) {
	const capacity = 16
	var s Store
	s.Reserve(2 * capacity)
	var src, dst Lane
	for i := 0; i < capacity; i++ {
		s.Push(&src, int32(i), float64(i/5))
	}
	w := snap.NewWriter(0)
	s.SnapshotLane(w, &src)
	stream := w.Bytes()
	staged := make([]Item, 0, capacity)
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if staged, err = ReadLane(snap.NewReader(stream), staged[:0], capacity); err != nil {
			t.Fatal(err)
		}
		dst.Reset()
		for _, it := range staged {
			s.Push(&dst, int32(capacity+it.Vehicle), it.EnqueuedAt)
		}
	})
	if allocs != 0 {
		t.Fatalf("restore into the reserved store made %v allocations, want 0", allocs)
	}
	got, want := laneItems(&s, &dst), laneItems(&s, &src)
	for i := range want {
		want[i].Vehicle += capacity
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restored list = %+v, want %+v", got, want)
	}
}

// TestSlabExhaustedFallsBack pins the fallbacks: a transit list pushed
// past its store's reservation grows the store and keeps its order,
// and a lane on a store with no reservation at all holds any number of
// vehicles, the store growing to cover them.
func TestSlabExhaustedFallsBack(t *testing.T) {
	var small Store
	small.Reserve(2)
	var tr Lane
	for i := 0; i < 5; i++ {
		small.Push(&tr, int32(i), float64(i))
	}
	if len(small.links) < 5 {
		t.Fatalf("store covers %d vehicles after 5 transit pushes", len(small.links))
	}
	for i := 0; i < 5; i++ {
		if it, ok := popDue(&small, &tr, 10); !ok || it.Vehicle != i {
			t.Fatalf("transit pop %d = %+v, %v", i, it, ok)
		}
	}
	var st Store
	var l Lane
	const n = 5000
	for i := 0; i < n; i++ {
		st.Push(&l, int32(i), float64(i))
	}
	if l.Len() != n || len(st.links) < n {
		t.Fatalf("unreserved store holds a lane of %d, covers %d vehicles", l.Len(), len(st.links))
	}
	for i := 0; i < n; i++ {
		if it, ok := st.Pop(&l); !ok || it.Vehicle != i || it.EnqueuedAt != float64(i) {
			t.Fatalf("pop %d = %+v, %v", i, it, ok)
		}
	}
}
