package core

import "utilbp/internal/snap"

// SnapshotState implements signal.Snapshotter. The only cross-step
// state Algorithm 1 keeps is the transition timer t_Δk — the gain and
// score slabs are per-Decide scratch recomputed from the observation —
// so the UTIL-BP state section is a single integer.
func (c *Controller) SnapshotState(w *snap.Writer) {
	w.Int(c.amberUntil)
}

// RestoreState implements signal.Snapshotter.
func (c *Controller) RestoreState(r *snap.Reader) error {
	c.amberUntil = r.Int()
	return r.Err()
}
