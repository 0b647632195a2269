// The batched serve plane (DESIGN.md §16): the service substep
// S(k,k+1) over dense engine-owned arrays indexed by global link id —
// the same slab discipline the PR 5 control plane established. Three
// structures carry it: the flattened phase table (signal.PhaseTable)
// replacing the per-junction [][]int phase lists, one serveSite per
// link with the road states and per-slot service constants resolved at
// construction, and the credit slab every junction's credit window
// aliases. On top of them sits the skip rule: a junction whose applied
// phase held this mini-slot, whose active lanes all ended the previous
// pass empty and whose roads saw no change since (the dirty-road
// protocol doubles as the wake signal) provably serves nothing — its
// pass reduces to the empty-lane credit recurrence, which the idle tick
// replays exactly, so skipping is a pure cost optimization with
// bit-identical state evolution. The pre-slab per-junction loop lives
// on in test code (serveref_test.go) as the pin target of the
// serve-equivalence harness.
package sim

import (
	"utilbp/internal/network"
	"utilbp/internal/signal"
	"utilbp/internal/vehicle"
)

// serveSite is one link's resolved serve state: the IDs of the roads on
// both ends, which index the counter slab and the road states alike,
// and the per-slot service constants, precomputed once so the hot loop
// performs no junction/link chasing and no repeated float arithmetic.
// The constants are computed with exactly the reference loop's
// expressions (serveref_test.go: muDt = l.Mu*Δt, creditCap =
// float64(l.Mu*Δt)+1, startDebt = -float64(StartupLostSteps)*l.Mu*Δt,
// same association and the same rounded product), so they are
// bit-identical to its inline ones.
type serveSite struct {
	muDt      float64
	creditCap float64
	startDebt float64
	in, out   int32
	turn      network.Turn
	outExits  bool
}

// Per-junction serve-idle states. serveNotIdle (the zero value — what
// Reset and Restore leave behind) forces a full pass. serveIdleGreen
// marks a held green whose active lanes all ended the last pass empty:
// until a wake, its pass is the empty-lane credit recurrence the idle
// tick replays. serveIdleAmber marks a held amber after one amber pass
// zeroed every credit: further held-amber passes are no-ops outright.
const (
	serveNotIdle uint8 = iota
	serveIdleGreen
	serveIdleAmber
)

// The sub-threshold flag (serveSub) is the skip rule's second leg,
// orthogonal to lane-emptiness: a held green whose active links all
// ended the last pass with credit + µΔt < 1 cannot serve this
// mini-slot no matter what its lanes hold — the serve loop's guard
// (credit >= 1) fails before the first peek, so the full pass reduces
// to credit += µΔt per active link (the cap µΔt+1 >= 1 cannot bind)
// with no lane reads, no dirty marks and no wake dependence. With the
// paper's µΔt = 0.5 an actively serving link alternates serve /
// sub-threshold mini-slots, so this halves the full passes of a
// junction in the middle of a drain. The flag is recomputed by every
// pass that changes the active credits (full pass and sub tick) and
// invalidated by the idle tick (whose orbit reset changes credits
// without recomputing it); like serveIdle it is derived state —
// cleared on Reset/Restore, never serialized.

// buildServePlane constructs the serve plane: the flattened phase
// table, the per-link serve sites and the credit slab, rebinding every
// junction's credit window onto the slab (snapshot encoding is
// unchanged — the per-junction windows serialize exactly as the old
// per-junction arrays did). It runs once at construction; the batch
// tables it resolves are stable for the engine's lifetime.
func (e *Engine) buildServePlane() {
	e.phaseTab = signal.BuildPhaseTable(e.batch.Infos, e.batch.JuncOff)
	e.serveSites = make([]serveSite, len(e.links))
	e.creditSlab = make([]float64, len(e.links))
	e.serveIdle = make([]uint8, len(e.juncs))
	e.juncWoke = make([]bool, len(e.juncs))
	e.serveSub = make([]bool, len(e.juncs))
	for ji := range e.juncs {
		js := &e.juncs[ji]
		lo, hi := js.linkBase, js.linkBase+int32(len(js.j.Links))
		js.credits = e.creditSlab[lo:hi:hi]
		for li := range js.j.Links {
			l := &js.j.Links[li]
			e.serveSites[lo+int32(li)] = serveSite{
				in:        int32(l.In),
				out:       int32(l.Out),
				muDt:      l.Mu * e.dt,
				creditCap: float64(l.Mu*e.dt) + 1,
				startDebt: -float64(e.cfg.StartupLostSteps) * l.Mu * e.dt,
				turn:      l.Turn,
				outExits:  e.roads[l.Out].exits,
			}
		}
	}
}

// resetServeSkip rewinds the skip machinery to "full pass everywhere".
// Reset and Restore call it: the cleared state is conservative, not
// lossy — a full pass over an idle junction performs exactly the idle
// tick's credit updates (the serve loop with an empty lane reduces to
// the same recurrence), so clearing never changes the state evolution,
// only the cost of the next pass.
func (e *Engine) resetServeSkip() {
	for i := range e.serveIdle {
		e.serveIdle[i] = serveNotIdle
		e.juncWoke[i] = false
		e.serveSub[i] = false
	}
}

// serve applies S(k,k+1): each link of the active phase serves at its
// rate, physically blocked when the outgoing road is full. A fresh
// green (the applied phase differs from the previous mini-slot's)
// starts with a service debt of StartupLostSteps slots, modeling the
// acceleration of the stopped queue.
//
// The skip rule: a junction is eligible when its applied phase held
// (current == prev — phase changes reset credits and must run the full
// pass) AND its idle state from the previous pass still stands AND none
// of its incoming roads changed since (juncWoke, fanned out by sense
// from the dirty set to each dirty road's head junction). An eligible
// held green runs the idle tick — the exact empty-lane credit
// recurrence, see serveIdleTick — and an eligible held amber skips
// outright (its credits are already zero). Independently, a held green
// flagged sub-threshold takes the sub tick — it cannot serve this
// mini-slot regardless of lane state or wake, see serveSubTick.
// Everything else takes the full pass, which re-derives both skip
// conditions.
func (e *Engine) serve(t float64) {
	for ji := range e.juncs {
		js := &e.juncs[ji]
		cur := js.current
		if cur == js.prev {
			switch e.serveIdle[ji] {
			case serveIdleAmber:
				// A held amber zeroes credits that are already zero:
				// a no-op regardless of lane state, so not even a wake
				// requires the pass.
				continue
			case serveIdleGreen:
				if !e.juncWoke[ji] {
					// The orbit reset changes credits without
					// recomputing the sub-threshold flag, so it must
					// invalidate it (the flag only ever describes the
					// credits the last full pass or sub tick stored).
					// Conditional store: after the first idle tick the
					// flag stays false, and a long idle run must not
					// dirty the cache line every mini-slot.
					if e.serveSub[ji] {
						e.serveSub[ji] = false
					}
					e.serveIdleTick(ji, cur)
					continue
				}
			}
			if e.serveSub[ji] {
				e.serveSubTick(ji, cur)
				continue
			}
		}
		e.juncWoke[ji] = false
		if cur == signal.Amber {
			for li := range js.credits {
				js.credits[li] = 0
			}
			e.serveIdle[ji] = serveIdleAmber
			continue
		}
		row := e.phaseTab.Row(ji, cur)
		if cur != js.prev {
			// A fresh green zeroes the credits of the links it does not
			// serve. A held green's are zero already: the pass that
			// opened it zeroed them, and the idle and sub ticks write
			// only its row (CheckInvariants checks it).
			active := js.phaseActive[cur-1]
			for li := range js.credits {
				if !active[li] {
					js.credits[li] = 0
				}
			}
			for _, gl := range row {
				e.creditSlab[gl] = e.serveSites[gl].startDebt
			}
		}
		idle, sub := true, true
		for _, gl := range row {
			empty, subNext := e.serveLinkAt(gl, t)
			idle = idle && empty
			sub = sub && subNext
		}
		if idle {
			e.serveIdle[ji] = serveIdleGreen
		} else {
			e.serveIdle[ji] = serveNotIdle
		}
		e.serveSub[ji] = sub
	}
}

// serveIdleTick advances an idle held-green junction's credits exactly
// as the full pass would with empty lanes: grant the slot's credit and
// reset it on the failed peek. The full serve loop with an empty lane
// stores c+µΔt when that stays below 1 (the loop body never runs) and
// 0 otherwise (the first peek fails); idle credits are always < 1 (a
// pass that ends with an empty lane cannot leave a credit >= 1), so
// the µΔt+1 cap can never bind and the recurrence below is
// bit-identical. With µΔt < 1 — the paper's calibration is µ = 0.5
// veh/s at Δt = 1 — empty-lane credits genuinely oscillate (0 → 0.5 →
// 0 → ...), which is why idle junctions tick rather than skip: frozen
// credits would diverge from the reference (credits are snapshot
// state).
func (e *Engine) serveIdleTick(ji int, cur signal.Phase) {
	for _, gl := range e.phaseTab.Row(ji, cur) {
		c := e.creditSlab[gl] + e.serveSites[gl].muDt
		if c >= 1 {
			c = 0
		}
		e.creditSlab[gl] = c
	}
}

// serveSubTick advances a sub-threshold held green: under the flag's
// invariant (credit + µΔt < 1 on every active link when the last pass
// stored it) the full pass degenerates to credit += µΔt — the cap
// µΔt+1 >= 1 cannot bind below 1, the serve loop's credit >= 1 guard
// fails before any lane peek, nothing is served and nothing is marked
// dirty. Inactive credits stay untouched: they were zeroed by the full
// green pass that opened this held phase and nothing has written them
// since. The tick recomputes the flag from the stored credits, so a
// chain of sub ticks (µΔt < 0.5) stays exact and terminates: credits
// grow strictly each tick, forcing a full pass before any link could
// first serve.
func (e *Engine) serveSubTick(ji int, cur signal.Phase) {
	sub := true
	for _, gl := range e.phaseTab.Row(ji, cur) {
		muDt := e.serveSites[gl].muDt
		c := e.creditSlab[gl] + muDt
		e.creditSlab[gl] = c
		if c+muDt >= 1 {
			sub = false
		}
	}
	e.serveSub[ji] = sub
}

// serveLinkAt grants link gl its per-slot service credit and serves
// whole vehicles while credit, queue and downstream space allow. Credit
// is capped at µΔt+1 so a capacity-blocked link cannot bank unbounded
// credit and burst, and resets when the lane empties (the paper's
// service condition requires at least µΔt waiting vehicles to reach the
// maximum). These are the reference loop's semantics (serveLink in
// serveref_test.go), with the road IDs, movement and float constants
// loaded from the site instead of re-derived per call. The lane's
// emptiness is read off the road's row, so a vehicle is served with one
// Pop and no Peek. It reports the two per-link skip conditions: whether
// the lane ended the pass empty (the idle condition; when it did, the
// stored credit is provably < 1) and whether the stored credit keeps
// the link sub-threshold for the next mini-slot (credit + µΔt < 1 — the
// link cannot serve then no matter how its lanes change).
func (e *Engine) serveLinkAt(gl int32, t float64) (empty, subNext bool) {
	s := &e.serveSites[gl]
	in, inRow, outRow := &e.roads[s.in], &e.rows[s.in], &e.rows[s.out]
	credit := e.creditSlab[gl] + s.muDt
	if credit > s.creditCap {
		credit = s.creditCap
	}
	// The lane this link serves from and the count of its vehicles:
	// turning lane t and q_i^{i'}, or the mixed lane and the road total.
	lane, waiting := &in.lanes[s.turn], &inRow.Queued[s.turn]
	if e.cfg.MixedLanes {
		lane, waiting = &in.mixed, &inRow.Total
	}
	served := false
	for credit >= 1 {
		if *waiting == 0 {
			credit = 0
			break
		}
		if e.cfg.MixedLanes {
			if head, _ := lane.Head(); e.arena.PendingTurn(vehicle.ID(head)) != s.turn {
				// Head-of-line blocking: the head vehicle wants a
				// different movement, so this link cannot serve now.
				break
			}
		}
		if outRow.Full() {
			break
		}
		item, _ := e.store.Pop(lane)
		inRow.Queued[s.turn]--
		inRow.Total--
		e.netQueued--
		credit--
		served = true
		id := vehicle.ID(item.Vehicle)
		e.arena.Serve(id, t-item.EnqueuedAt)
		inRow.Occ--
		e.totals.Served++
		if s.outExits {
			e.exitVehicle(id, t)
		} else {
			e.enterRoad(s.out, id, t)
		}
	}
	e.creditSlab[gl] = credit
	if served {
		// Both road states changed: the incoming road lost queued
		// vehicles, the outgoing one gained occupancy and transit.
		// Served-to-exit vehicles leave the outgoing road untouched
		// (they never occupy it), so exit roads stay clean.
		e.markDirty(network.RoadID(s.in))
		if !s.outExits {
			e.markDirty(network.RoadID(s.out))
		}
	}
	return *waiting == 0, credit+s.muDt < 1
}
