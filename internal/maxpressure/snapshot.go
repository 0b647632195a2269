package maxpressure

import (
	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// SnapshotState implements signal.Snapshotter: the phase timers keyed
// on the observed applied phase — the last seen Current, the green
// onset step and the self-commanded amber deadline. The weight slab is
// per-Decide scratch.
func (c *Controller) SnapshotState(w *snap.Writer) {
	w.Int(int(c.prevCur))
	w.Int(c.greenStart)
	w.Int(c.amberUntil)
}

// RestoreState implements signal.Snapshotter.
func (c *Controller) RestoreState(r *snap.Reader) error {
	c.prevCur = signal.Phase(r.Int())
	c.greenStart = r.Int()
	c.amberUntil = r.Int()
	return r.Err()
}
