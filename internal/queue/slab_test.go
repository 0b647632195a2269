package queue

import (
	"testing"

	"utilbp/internal/snap"
)

// laneItems returns the lane's contents, head first.
func laneItems(l *Lane) []Item {
	items := make([]Item, l.Len())
	for i := range items {
		items[i] = l.At(i)
	}
	return items
}

// TestSlabLaneOverflowKeepsNeighbour pins the capacity clamp of a
// slab window: a lane pushed past its window regrows into fresh
// storage, and the lane whose window follows it in the slab keeps its
// contents, wrapped ring included.
func TestSlabLaneOverflowKeepsNeighbour(t *testing.T) {
	const capacity = 4
	s := NewSlab(2*capacity, 0)
	var a, b Lane
	s.ReserveLane(&a, capacity)
	s.ReserveLane(&b, capacity)
	if a.Cap() != capacity || b.Cap() != capacity {
		t.Fatalf("window capacities %d, %d, want %d", a.Cap(), b.Cap(), capacity)
	}
	// Wrap b's ring so its head sits mid-window.
	for i := 0; i < capacity; i++ {
		b.Push(100+i, float64(100+i))
	}
	b.Pop()
	b.Pop()
	b.Push(200, 200)
	want := laneItems(&b)

	for i := 0; i < 3*capacity; i++ {
		a.Push(i, float64(i))
	}
	if a.Cap() <= capacity {
		t.Fatalf("overfull lane kept capacity %d", a.Cap())
	}
	for i := 0; i < 3*capacity; i++ {
		if it := a.At(i); it.Vehicle != i || it.EnqueuedAt != float64(i) {
			t.Fatalf("overfull lane item %d = %+v", i, it)
		}
	}
	got := laneItems(&b)
	if len(got) != len(want) {
		t.Fatalf("neighbour holds %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbour item %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Churn within b's window never regrows it.
	for i := 0; i < 2*capacity; i++ {
		b.Pop()
		b.Push(300+i, float64(300+i))
	}
	if b.Cap() != capacity {
		t.Fatalf("neighbour regrew to %d under churn within its window", b.Cap())
	}
}

// TestSlabTravelOverflowKeepsNeighbour is the heap counterpart: an
// Add past the window appends into fresh storage, never into the next
// heap's window.
func TestSlabTravelOverflowKeepsNeighbour(t *testing.T) {
	const capacity = 4
	s := NewSlab(0, 2*capacity)
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
	s := NewSlab(0, 2*capacity)
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

// TestSlabExhaustedFallsBack pins the fallback of a request the slab
// has no room for: the lane and the heap get fresh storage of the
// requested capacity.
func TestSlabExhaustedFallsBack(t *testing.T) {
	s := NewSlab(2, 2)
	var l Lane
	var tr Travel
	s.ReserveLane(&l, 5)
	s.ReserveTravel(&tr, 5)
	if l.Cap() != 5 || cap(tr.h) != 5 {
		t.Fatalf("fallback capacities %d, %d, want 5", l.Cap(), cap(tr.h))
	}
}
