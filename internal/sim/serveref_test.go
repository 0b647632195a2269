// The serve-equivalence oracle (DESIGN.md §16): the pre-slab
// per-junction serve loop, kept verbatim in test code as the pin target
// of the batched serve plane. No production field, hook or build tag
// selects it; stepServeReference runs it in place of serve, and
// export_test.go hands that stepper to the sim_test harness.
package sim

import (
	"utilbp/internal/queue"
	"utilbp/internal/signal"
	"utilbp/internal/vehicle"
)

// stepServeReference advances one mini-slot like stepOnce, with the
// reference loop in place of the batched serve plane: the production
// substeps, then the shared step tail.
func (e *Engine) stepServeReference() {
	t := e.Time()
	e.applyEvents()
	e.sense()
	e.control(t)
	e.serveReference(t)
	e.completeTravel(t)
	e.arrivals(t)
	e.endStep()
}

// serveReference is the per-junction reference serve loop — the
// pre-slab implementation, kept verbatim as the pin target: the
// serve-equivalence harness runs it against serve on every registry
// workload and compares snapshot bytes.
func (e *Engine) serveReference(t float64) {
	for ji := range e.juncs {
		js := &e.juncs[ji]
		if js.current == signal.Amber {
			for i := range js.credits {
				js.credits[i] = 0
			}
			continue
		}
		links := js.j.Phases[js.current-1]
		active := js.phaseActive[js.current-1]
		for li := range js.credits {
			if !active[li] {
				js.credits[li] = 0
			}
		}
		if js.current != js.prev {
			for _, li := range links {
				l := &js.j.Links[li]
				js.credits[li] = -float64(e.cfg.StartupLostSteps) * l.Mu * e.dt
			}
		}
		for _, li := range links {
			e.serveLink(js, li, t)
		}
	}
}

// serveLink grants the link its per-slot service credit and serves whole
// vehicles while credit, queue and downstream space allow. Credit is
// capped at µΔt+1 so a capacity-blocked link cannot bank unbounded credit
// and burst, and resets when the lane empties (the paper's service
// condition requires at least µΔt waiting vehicles to reach the maximum).
func (e *Engine) serveLink(js *junctionState, li int, t float64) {
	l := &js.j.Links[li]
	in, inRow := &e.roads[l.In], &e.rows[l.In]
	out, outRow := &e.roads[l.Out], &e.rows[l.Out]
	credit := js.credits[li] + float64(l.Mu*e.dt)
	if max := float64(l.Mu*e.dt) + 1; credit > max {
		credit = max
	}
	served := false
	for credit >= 1 {
		var (
			item queue.Item
			ok   bool
		)
		if e.cfg.MixedLanes {
			item, ok = e.store.Peek(&in.mixed)
			if ok && e.arena.PendingTurn(vehicle.ID(item.Vehicle)) != l.Turn {
				// Head-of-line blocking: the head vehicle wants a
				// different movement, so this link cannot serve now.
				break
			}
		} else {
			item, ok = e.store.Peek(&in.lanes[l.Turn])
		}
		if !ok {
			credit = 0
			break
		}
		if outRow.Full() {
			break
		}
		if e.cfg.MixedLanes {
			e.store.Pop(&in.mixed)
		} else {
			e.store.Pop(&in.lanes[l.Turn])
		}
		inRow.Queued[l.Turn]--
		inRow.Total--
		e.netQueued--
		credit--
		served = true
		id := vehicle.ID(item.Vehicle)
		e.arena.Serve(id, t-item.EnqueuedAt)
		inRow.Occ--
		e.totals.Served++
		if out.exits {
			e.exitVehicle(id, t)
		} else {
			e.enterRoad(int32(l.Out), id, t)
		}
	}
	js.credits[li] = credit
	if served {
		// Both road states changed: the incoming road lost queued
		// vehicles, the outgoing one gained occupancy and transit.
		// Served-to-exit vehicles leave the outgoing road untouched
		// (they never occupy it), so exit roads stay clean.
		e.markDirty(l.In)
		if !out.exits {
			e.markDirty(l.Out)
		}
	}
}
