package sensing

import (
	"fmt"

	"utilbp/internal/snap"
)

// SnapshotState implements snap.Snapshotter: the sensing RNG stream and
// the per-link detector state for the prepared link count. The links
// slice may be over-sized from serving a larger engine earlier; only the
// prepared prefix is live, so only it is captured — the snapshot bytes
// stay a pure function of observable sensor state.
func (ld *LoopDetector) SnapshotState(w *snap.Writer) {
	st := ld.src.State()
	for _, v := range st {
		w.Uint64(v)
	}
	w.Int(ld.n)
	for i := 0; i < ld.n; i++ {
		l := &ld.links[i]
		for f := 0; f < int(numFields); f++ {
			w.Float64(l.est[f])
		}
		for f := 0; f < int(numFields); f++ {
			w.Int32(l.last[f])
		}
	}
}

// RestoreState implements snap.Snapshotter.
func (ld *LoopDetector) RestoreState(r *snap.Reader) error {
	var st [4]uint64
	for i := range st {
		st[i] = r.Uint64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	ld.src.SetState(st)
	n := r.Count()
	if r.Err() == nil && n != ld.n {
		return fmt.Errorf("sensing: snapshot holds %d loop-detector links, sensor prepared %d", n, ld.n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		l := &ld.links[i]
		for f := 0; f < int(numFields); f++ {
			l.est[f] = r.Float64()
		}
		for f := 0; f < int(numFields); f++ {
			l.last[f] = r.Int32()
		}
	}
	return r.Err()
}

// SnapshotState implements snap.Snapshotter: the sensing RNG stream and
// the per-link probe state (running estimates plus the last accepted
// report step) for the prepared link count.
func (cv *ConnectedVehicle) SnapshotState(w *snap.Writer) {
	st := cv.src.State()
	for _, v := range st {
		w.Uint64(v)
	}
	w.Int(cv.n)
	for i := 0; i < cv.n; i++ {
		l := &cv.links[i]
		for f := 0; f < int(numFields); f++ {
			w.Float64(l.est[f])
		}
		w.Int32(l.lastReport)
	}
}

// RestoreState implements snap.Snapshotter.
func (cv *ConnectedVehicle) RestoreState(r *snap.Reader) error {
	var st [4]uint64
	for i := range st {
		st[i] = r.Uint64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	cv.src.SetState(st)
	n := r.Count()
	if r.Err() == nil && n != cv.n {
		return fmt.Errorf("sensing: snapshot holds %d connected-vehicle links, sensor prepared %d", n, cv.n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		l := &cv.links[i]
		for f := 0; f < int(numFields); f++ {
			l.est[f] = r.Float64()
		}
		l.lastReport = r.Int32()
	}
	return r.Err()
}

// SnapshotState implements snap.Snapshotter by delegating to the inner
// sensor: the outage windows are deterministic schedule configuration,
// not run state.
func (o *outageSensor) SnapshotState(w *snap.Writer) {
	if s, ok := o.inner.(snap.Snapshotter); ok {
		s.SnapshotState(w)
	}
}

// RestoreState implements snap.Snapshotter.
func (o *outageSensor) RestoreState(r *snap.Reader) error {
	if s, ok := o.inner.(snap.Snapshotter); ok {
		return s.RestoreState(r)
	}
	if r.Len() != 0 {
		return fmt.Errorf("sensing: outage wrapper: %d bytes of state for a stateless inner sensor", r.Len())
	}
	return nil
}
