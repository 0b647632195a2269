package sim

import (
	"fmt"

	"utilbp/internal/snap"
)

// SnapshotState implements snap.Snapshotter: the root stream's RNG
// state plus every materialized per-road stream (its RNG state and the
// cached sampler limit). The materialized set is captured exactly —
// which streams exist is itself a deterministic function of the run
// history, and restoring it byte-for-byte keeps later snapshots of a
// restored run identical to the uninterrupted run's.
func (p *PoissonDemand) SnapshotState(w *snap.Writer) {
	st := p.root.State()
	for _, v := range st {
		w.Uint64(v)
	}
	w.Int(len(p.streams))
	for i := range p.streams {
		s := &p.streams[i]
		w.Bool(s.src != nil)
		if s.src == nil {
			continue
		}
		sst := s.src.State()
		for _, v := range sst {
			w.Uint64(v)
		}
		w.Float64(s.mean)
		w.Float64(s.limit)
	}
}

// RestoreState implements snap.Snapshotter. Streams beyond the
// snapshot's length (possible when the process served a longer run on
// a reused engine) are reset to unmaterialized, so the restored
// process is indistinguishable from the captured one.
func (p *PoissonDemand) RestoreState(r *snap.Reader) error {
	var st [4]uint64
	for i := range st {
		st[i] = r.Uint64()
	}
	if r.Err() != nil {
		return r.Err()
	}
	p.root.SetState(st)
	n := r.Count()
	if n > len(p.streams) {
		grown := make([]poissonStream, n)
		copy(grown, p.streams)
		p.streams = grown
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		s := &p.streams[i]
		if !r.Bool() {
			*s = poissonStream{}
			continue
		}
		var sst [4]uint64
		for j := range sst {
			sst[j] = r.Uint64()
		}
		if r.Err() != nil {
			return r.Err()
		}
		if s.src == nil {
			s.src = p.root.SplitIndexed("arrivals", i)
		}
		s.src.SetState(sst)
		s.mean = r.Float64()
		s.limit = r.Float64()
	}
	for i := n; i < len(p.streams) && r.Err() == nil; i++ {
		p.streams[i] = poissonStream{}
	}
	return r.Err()
}

// SnapshotState implements snap.Snapshotter by delegating to the inner
// process; the cutoff step is configuration, not run state.
func (d *CutoffDemand) SnapshotState(w *snap.Writer) {
	if s, ok := d.Inner.(snap.Snapshotter); ok {
		s.SnapshotState(w)
	}
}

// RestoreState implements snap.Snapshotter.
func (d *CutoffDemand) RestoreState(r *snap.Reader) error {
	if s, ok := d.Inner.(snap.Snapshotter); ok {
		return s.RestoreState(r)
	}
	if r.Len() != 0 {
		return fmt.Errorf("sim: cutoff demand: %d bytes of state for a stateless inner process", r.Len())
	}
	return nil
}
