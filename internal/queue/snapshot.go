package queue

import (
	"fmt"

	"utilbp/internal/snap"
)

// SnapshotLane writes lane l as its length and then its (vehicle, time)
// pairs head to tail. The bytes depend only on which vehicles the lane
// holds, in which order and with which times, so two lanes holding the
// same vehicles write the same bytes whatever their push and pop
// history and wherever the store keeps their links.
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
