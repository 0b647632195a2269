package queue

import (
	"fmt"

	"utilbp/internal/snap"
)

// SnapshotLane writes lane l as its length and then its (vehicle,
// enqueue time) pairs head to tail. The bytes depend only on which
// vehicles the lane holds, in which order and since when, so two lanes
// holding the same vehicles write the same bytes whatever their push
// and pop history and wherever the store keeps their links.
func (s *Store) SnapshotLane(w *snap.Writer, l *Lane) {
	w.Int(l.Len())
	for it := range s.Items(l) {
		w.Int(it.Vehicle)
		w.Float64(it.EnqueuedAt)
	}
}

// ReadLane decodes one lane SnapshotLane wrote, appending its pairs to
// dst head first. It rejects a lane longer than limit before reading
// its pairs, so a corrupt length cannot grow dst past what the caller
// allows; whether each pair names a vehicle the lane may hold is left to
// the caller, which pushes the pairs once it can tell.
func ReadLane(r *snap.Reader, dst []Item, limit int) ([]Item, error) {
	n := r.Count()
	if err := r.Err(); err != nil {
		return dst, err
	}
	if n > limit {
		return dst, fmt.Errorf("queue: %d vehicles queued, at most %d allowed", n, limit)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, Item{Vehicle: r.Int(), EnqueuedAt: r.Float64()})
	}
	return dst, r.Err()
}

// SnapshotState implements snap.Snapshotter: the heap's backing array
// is captured verbatim — array order, per-entry tie-break sequence
// numbers and the running counter — because PopDue's tie-breaking
// depends on the exact heap shape, not just the multiset of arrivals.
// Restoring the array byte-for-byte is what keeps a restored run's
// service order identical to the uninterrupted one.
func (t *Travel) SnapshotState(w *snap.Writer) {
	w.Int32(t.seq)
	w.Int(len(t.h))
	for i := range t.h {
		a := &t.h[i]
		w.Float64(a.At)
		w.Int32(a.Vehicle)
		w.Int32(a.seq)
	}
}

// RestoreState implements snap.Snapshotter, reinstating the exact heap
// array and sequence counter a SnapshotState captured.
func (t *Travel) RestoreState(r *snap.Reader) error {
	t.Reset()
	t.seq = r.Int32()
	n := r.Count()
	t.Reserve(n)
	for i := 0; i < n && r.Err() == nil; i++ {
		t.h = append(t.h, Arrival{
			At:      r.Float64(),
			Vehicle: r.Int32(),
			seq:     r.Int32(),
		})
	}
	return r.Err()
}
