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

// TestSlabTravelOverflowKeepsNeighbour is the heap counterpart: an
// Add past the window appends into fresh storage, never into the next
// heap's window.
func TestSlabTravelOverflowKeepsNeighbour(t *testing.T) {
	const capacity = 4
	s := NewSlab(2 * capacity)
	var a, b Travel
	s.ReserveTravel(&a, capacity)
	s.ReserveTravel(&b, capacity)
	for i := 0; i < capacity; i++ {
		b.Add(100+i, float64(100+i))
	}
	for i := 0; i < 3*capacity; i++ {
		a.Add(i, float64(3*capacity-i))
	}
	for i := 0; i < capacity; i++ {
		got, ok := b.PopDue(1000)
		if !ok || got.Vehicle != int32(100+i) || got.At != float64(100+i) {
			t.Fatalf("neighbour pop %d = %+v, %v", i, got, ok)
		}
	}
	for i := 3*capacity - 1; i >= 0; i-- {
		if got, ok := a.PopDue(1000); !ok || got.Vehicle != int32(i) {
			t.Fatalf("overfull heap pop = %+v, %v, want vehicle %d", got, ok, i)
		}
	}
}

// TestSlabTravelRestoreAllocatesNothing pins that restoring a heap
// into its slab window reuses the window: a restore that fits it
// allocates nothing.
func TestSlabTravelRestoreAllocatesNothing(t *testing.T) {
	const capacity = 16
	s := NewSlab(2 * capacity)
	var src, dst Travel
	s.ReserveTravel(&src, capacity)
	s.ReserveTravel(&dst, capacity)
	for i := 0; i < capacity; i++ {
		src.Add(i, float64(i%5))
	}
	w := snap.NewWriter(0)
	src.SnapshotState(w)
	stream := w.Bytes()
	allocs := testing.AllocsPerRun(50, func() {
		if err := dst.RestoreState(snap.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("restore within the window made %v allocations, want 0", allocs)
	}
	if cap(dst.h) != capacity {
		t.Fatalf("restored heap capacity %d, want the window's %d", cap(dst.h), capacity)
	}
}

// TestSlabExhaustedFallsBack pins the fallbacks: a travel heap the
// slab has no room for gets fresh storage of the requested capacity,
// and a lane on a store with no reservation at all holds any number of
// vehicles, the store growing to cover them.
func TestSlabExhaustedFallsBack(t *testing.T) {
	s := NewSlab(2)
	var tr Travel
	s.ReserveTravel(&tr, 5)
	if cap(tr.h) != 5 {
		t.Fatalf("fallback heap capacity %d, want 5", cap(tr.h))
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
