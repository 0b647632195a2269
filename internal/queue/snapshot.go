package queue

import "utilbp/internal/snap"

// SnapshotState implements snap.Snapshotter: the lane is serialized
// logically, head-to-tail, so the bytes are independent of where the
// ring's contents happen to sit in storage — two lanes holding the same
// vehicles in the same order snapshot identically regardless of their
// push/pop history. Ring capacity is not captured: it is a performance
// property (reserved from road capacity at engine construction), not
// simulation state.
func (l *Lane) SnapshotState(w *snap.Writer) {
	w.Int(l.n)
	for i := 0; i < l.n; i++ {
		it := l.At(i)
		w.Int(it.Vehicle)
		w.Float64(it.EnqueuedAt)
	}
}

// RestoreState implements snap.Snapshotter, rebuilding the queue
// contents in FIFO order over the existing ring storage (growing it
// only if the snapshot holds more items than the ring ever did).
func (l *Lane) RestoreState(r *snap.Reader) error {
	l.Reset()
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		v := r.Int()
		at := r.Float64()
		l.Push(v, at)
	}
	return r.Err()
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
