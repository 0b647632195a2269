package bpest

import (
	"fmt"

	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// SnapshotState implements signal.Snapshotter: the estimated-routing
// controller carries its Algorithm 1 tail's one-int state (the amber
// timer) plus one turn-ratio estimator per link — the ratio vector and
// the cumulative join counters it last consumed. Restoring lastJoins alongside the ratios is what makes the
// first post-restore full sweep exact: Observe sees zero deltas on
// unchanged links and no-ops, leaving the restored ratios bit-for-bit.
func (c *Controller) SnapshotState(w *snap.Writer) {
	c.tail.SnapshotState(w)
	w.Int(len(c.est))
	for i := range c.est {
		e := &c.est[i]
		for t := 0; t < signal.NumTurns; t++ {
			w.Float64(e.ratios[t])
		}
		for t := 0; t < signal.NumTurns; t++ {
			w.Int(e.lastJoins[t])
		}
	}
}

// RestoreState implements signal.Snapshotter.
func (c *Controller) RestoreState(r *snap.Reader) error {
	if err := c.tail.RestoreState(r); err != nil {
		return err
	}
	n := r.Count()
	if r.Err() == nil && n != len(c.est) {
		return fmt.Errorf("bpest: snapshot holds %d link estimators, controller has %d", n, len(c.est))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		e := &c.est[i]
		for t := 0; t < signal.NumTurns; t++ {
			e.ratios[t] = r.Float64()
		}
		for t := 0; t < signal.NumTurns; t++ {
			e.lastJoins[t] = r.Int()
		}
	}
	return r.Err()
}
