// Engine snapshot/restore (DESIGN.md §14): a versioned, deterministic,
// byte-exact capture of the engine's state — the values everything else
// it holds is derived from. The stream is a pure function of that state
// — two snapshots of identical engine states compare equal with
// bytes.Equal — so the snapshot doubles as a state hash: the
// equivalence tests (and the chaos harness) pin "restore at step k, run
// to N" against "run to N uninterrupted" by comparing the final
// snapshot bytes.
//
// A snapshot is taken and restored between mini-slots (after stepOnce
// returns), which is what keeps the per-step scratch out of the format:
// the batch change set is empty at every inter-step point (sense fills
// it, the same step's control drains it), the link listing stamps only
// matter within the step that wrote them, and the controllers' gain
// slabs are per-decision cache. Restore rebuilds the control plane,
// whose weight windows start stale, and flags AllChanged, so each rule
// recomputes exactly the weights the uninterrupted run reads — they are
// pure functions of the observation and the restored controller state,
// so the next decision is bit-identical.
package sim

import (
	"fmt"
	"math"

	"utilbp/internal/queue"
	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

const (
	// snapshotMagic brands a byte stream as an engine snapshot
	// ("utilbpsn", little-endian).
	snapshotMagic uint64 = 0x6e73_7062_6c69_7475
	// snapshotVersion is bumped whenever the layout changes; Restore
	// rejects any other version. There is no cross-version migration —
	// snapshots are checkpoints of a running experiment, not archives.
	// v2 (PR 10): the vehicle section went column-major with the SoA
	// arena — per-column streams instead of per-vehicle records, and no
	// ID column (a vehicle's ID is its arena row index). See DESIGN.md
	// §16 for the exact format delta.
	// v3: a road's in-transit vehicles go out as a lane does,
	// (vehicle, arrival time) pairs head to tail, with no heap order or
	// tie-break numbers, and the fingerprint's sensor name carries every
	// option that changes what the sensor writes (DESIGN.md §14).
	// v4: the stream holds state only — no road counters, effective
	// capacities, dark state, event cursor, totals, truth or
	// engine-owned observation fields, and no cached Poisson limits —
	// the arena goes before the roads, and the fingerprint's controller
	// entry carries the factory's parameters (DESIGN.md §14).
	snapshotVersion uint64 = 4
)

// Snapshot captures the engine's state as a versioned byte stream: the
// step, the route-fallback count and the finalized flag, the vehicle
// arena, every road's join counts and queues (lanes, spawn queue,
// transit list), each junction's phase pair and service credits, under
// a sensor the fields the sensor writes, the pending dirty-road set,
// and the state of every stateful collaborator (demand, router, sensor,
// controllers) via snap.Snapshotter. Everything else the engine holds
// is derived from these, and Restore rebuilds it (resetDerived).
// Registered hooks are NOT captured — like Reset, restore discards
// them.
//
// The stream is deterministic: equal engine states yield equal bytes.
// Restore on an engine built from an equivalent Config resumes the run
// bit-for-bit.
func (e *Engine) Snapshot() []byte {
	w := snap.NewWriter(e.snapshotSizeHint())
	w.Uint64(snapshotMagic)
	w.Uint64(snapshotVersion)

	// Fingerprint: the structural facts a restore target must match.
	w.Int(len(e.roads))
	w.Int(len(e.juncs))
	w.Int(len(e.links))
	w.Float64(e.dt)
	w.Bool(e.cfg.MixedLanes)
	w.Int(e.cfg.StartupLostSteps)
	w.Bool(e.batchCtrl != nil)
	w.String(e.ctrlEntry)
	w.String(e.sensorEntry)
	w.Int(e.transitionCount())

	w.Int(e.step)
	w.Int(e.totals.RouteFallbacks)
	w.Bool(e.finalized)

	// Vehicle arena, column-major (the v2 format delta), pending
	// movements included.
	e.arena.SnapshotState(w)

	// Roads: the join counts, then the queues in queues() order.
	for i := range e.roads {
		for _, j := range e.rows[i].Joins {
			w.Int(int(j))
		}
		for _, l := range e.roads[i].queues() {
			e.store.SnapshotLane(w, l)
		}
	}

	// Junctions: phase pair, service credits.
	for i := range e.juncs {
		js := &e.juncs[i]
		w.Int(int(js.current))
		w.Int(int(js.prev))
		for _, c := range js.credits {
			w.Float64(c)
		}
	}

	// Under a sensor, the five columns it writes of each link's
	// observed pair: its readings are state of their own, while the
	// other columns follow the roads.
	if e.sensor != nil {
		for gl, l := range e.links {
			in, out := e.pair(int32(gl))
			w.Int32(in.Queued[l.Turn])
			w.Int32(in.Transit[l.Turn])
			w.Int32(in.Total)
			w.Int32(out.Total)
			w.Int32(out.Occ)
		}
	}

	// Pending dirty-road set, in marking order: the order fixes the
	// listing (and hence sensor-draw) sequence of the next mini-slot.
	w.Int(len(e.dirtyRoads))
	for _, rd := range e.dirtyRoads {
		w.Int32(rd)
	}

	// Stateful collaborators, each in its own bounded section.
	writeComponent(w, e.cfg.Demand)
	writeComponent(w, e.cfg.Router)
	writeComponent(w, e.sensor)
	w.Section(func(cw *snap.Writer) {
		if e.batchCtrl != nil {
			writeComponent(cw, e.batchCtrl)
			return
		}
		for i := range e.juncs {
			writeComponent(cw, e.juncs[i].ctrl)
		}
	})
	return w.Bytes()
}

// Restore rewinds the engine to the state a prior Snapshot captured.
// The engine must be built from an equivalent Config (same network
// structure, controller factory and parameters, sensor and event
// schedule) — the snapshot's structural fingerprint is validated and
// mismatches rejected. Like Reset, controllers are rebuilt through the
// factory (their captured state is then restored into the fresh
// instances) and registered hooks are discarded — they belong to the
// interrupted run's recorders, so a caller that wants to keep listening
// must re-register via AddHooks after every Restore
// (TestRestoreHookReregistration pins this). An installed telemetry
// recorder is the exception: it survives and re-arms — its series are
// rewound (the observation history before the checkpoint is not part
// of the snapshot's semantic state) and recording resumes at the
// restored step (TestRestoreRearmsTelemetry). On error the engine
// state is undefined; Reset it or discard it.
//
// The stream holds state only, so Restore decodes no derived value: it
// range-checks what it reads (the step, the route-fallback count, the
// join counts, each queue's length and members, the phases and the
// sensed counts) and ends, like New and Reset, in resetDerived.
func (e *Engine) Restore(data []byte) error {
	r := snap.NewReader(data)
	if m := r.Uint64(); r.Err() == nil && m != snapshotMagic {
		return fmt.Errorf("sim: not an engine snapshot (magic %#x)", m)
	}
	if v := r.Uint64(); r.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("sim: snapshot version %d, engine supports %d", v, snapshotVersion)
	}
	if err := e.checkFingerprint(r); err != nil {
		return err
	}

	// Fresh controllers on stale weight windows; their captured state
	// is restored below, and each rule weighs what it reads bit-exactly
	// (pure functions of the observation and that state).
	if err := e.buildControlPlane(); err != nil {
		return err
	}

	e.step = r.Int()
	e.totals.RouteFallbacks = r.Int()
	e.finalized = r.Bool()
	if r.Err() == nil && (e.step < 0 || e.totals.RouteFallbacks < 0) {
		return fmt.Errorf("sim: snapshot step %d, route fallbacks %d", e.step, e.totals.RouteFallbacks)
	}

	if err := e.arena.RestoreState(r); err != nil {
		return fmt.Errorf("sim: restore vehicle arena: %w", err)
	}
	entered, _, _ := e.arena.Counts()
	e.clearWhere()
	for i := range e.roads {
		if err := e.restoreRoad(r, i, e.arena.Len()-entered); err != nil {
			return err
		}
	}

	for i := range e.juncs {
		js := &e.juncs[i]
		js.current = signal.Phase(r.Int())
		js.prev = signal.Phase(r.Int())
		if !js.hasPhase(js.current) || !js.hasPhase(js.prev) {
			return fmt.Errorf("sim: snapshot junction %s phases current=%d prev=%d outside [%d, %d]",
				js.info.Label, js.current, js.prev, signal.Amber, len(js.j.Phases))
		}
		for li := range js.credits {
			js.credits[li] = r.Float64()
		}
	}

	if e.sensor != nil {
		if err := e.readSensed(r); err != nil {
			return err
		}
	}

	// Dirty set: clear the engine's current flags, then install the
	// snapshot's list verbatim (order fixes the next listing sequence).
	for _, rd := range e.dirtyRoads {
		e.roadDirty[rd] = false
	}
	e.dirtyRoads = e.dirtyRoads[:0]
	nd := r.Count()
	if r.Err() == nil && nd > len(e.roads) {
		return fmt.Errorf("sim: snapshot dirty-road count %d for %d roads", nd, len(e.roads))
	}
	for i := 0; i < nd && r.Err() == nil; i++ {
		rd := r.Int32()
		if rd < 0 || int(rd) >= len(e.roads) {
			return fmt.Errorf("sim: snapshot dirty road %d out of range", rd)
		}
		e.dirtyRoads = append(e.dirtyRoads, rd)
		e.roadDirty[rd] = true
	}

	if err := readComponent(r, e.cfg.Demand, "demand process"); err != nil {
		return err
	}
	if err := readComponent(r, e.cfg.Router, "router"); err != nil {
		return err
	}
	if err := readComponent(r, e.sensor, "sensor"); err != nil {
		return err
	}
	cr := r.Section()
	if e.batchCtrl != nil {
		if err := readComponent(cr, e.batchCtrl, "batched controller"); err != nil {
			return err
		}
	} else {
		for i := range e.juncs {
			what := fmt.Sprintf("controller %q", e.juncs[i].info.Label)
			if err := readComponent(cr, e.juncs[i].ctrl, what); err != nil {
				return err
			}
		}
	}
	if err := cr.Close(); err != nil {
		return fmt.Errorf("sim: restore controllers: %w", err)
	}
	if err := r.Close(); err != nil {
		return err
	}

	e.resetDerived()
	// Hooks belong to the interrupted run's recorders, exactly as in
	// Reset: discard them.
	clear(e.hooks)
	e.hooks = e.hooks[:0]
	e.hasPhaseHook = false
	// The telemetry recorder survives the jump but its series restart:
	// recorded history is observation-only and not in the snapshot.
	if e.telem != nil {
		e.rearmTelemetry()
	}
	// A stream can decode cleanly and still describe an impossible
	// state — a transit list out of arrival order, a credit outside the
	// range serve keeps it in — and the run would go on from it
	// silently. Accept only a state that passes the checks every
	// finished run passes.
	if err := e.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: restored state: %w", err)
	}
	return nil
}

// restoreRoad decodes road i's join counts and queues and links each
// queue's vehicles, rejecting a join count outside [0, MaxInt32], a
// lane or transit list longer than a bounded road's capacity, a spawn
// queue longer than the arena's waiting vehicles — each length before
// its pairs are read — a queue checkLane refuses, and any vehicle
// listQueued refuses: one outside the arena, queued already, or not
// where a run would have put it.
func (e *Engine) restoreRoad(r *snap.Reader, i, waiting int) error {
	road, row := &e.net.Roads[i], &e.rows[i]
	for t := range row.Joins {
		v := r.Int()
		if r.Err() == nil && (v < 0 || v > math.MaxInt32) {
			return fmt.Errorf("sim: road %d join count %d outside [0, %d]", i, v, math.MaxInt32)
		}
		row.Joins[t] = int32(v)
	}
	limit := math.MaxInt32
	if road.Bounded() {
		limit = road.Capacity
	}
	for k, lane := range e.roads[i].queues() {
		lim := limit
		if k == spawnQueue {
			lim = waiting
		}
		var err error
		if e.staged, err = queue.ReadLane(r, e.staged[:0], lim); err != nil {
			return fmt.Errorf("sim: road %d %s: %w", i, queueNames[k], err)
		}
		if err := e.checkLane(i, k, len(e.staged)); err != nil {
			return err
		}
		lane.Reset()
		for _, it := range e.staged {
			if err := e.listQueued(i, k, it.Vehicle); err != nil {
				return err
			}
			e.store.Push(lane, int32(it.Vehicle), it.EnqueuedAt)
		}
	}
	return nil
}

// checkFingerprint validates the snapshot's structural facts against
// the engine, so a restore into an incompatible engine fails loudly
// instead of silently diverging.
func (e *Engine) checkFingerprint(r *snap.Reader) error {
	if n := r.Int(); r.Err() == nil && n != len(e.roads) {
		return fmt.Errorf("sim: snapshot has %d roads, engine has %d", n, len(e.roads))
	}
	if n := r.Int(); r.Err() == nil && n != len(e.juncs) {
		return fmt.Errorf("sim: snapshot has %d junctions, engine has %d", n, len(e.juncs))
	}
	if n := r.Int(); r.Err() == nil && n != len(e.links) {
		return fmt.Errorf("sim: snapshot has %d links, engine has %d", n, len(e.links))
	}
	if dt := r.Float64(); r.Err() == nil && dt != e.dt {
		return fmt.Errorf("sim: snapshot Δt=%v, engine Δt=%v", dt, e.dt)
	}
	if m := r.Bool(); r.Err() == nil && m != e.cfg.MixedLanes {
		return fmt.Errorf("sim: snapshot mixed-lanes=%v, engine mixed-lanes=%v", m, e.cfg.MixedLanes)
	}
	if s := r.Int(); r.Err() == nil && s != e.cfg.StartupLostSteps {
		return fmt.Errorf("sim: snapshot startup-lost-steps=%d, engine has %d", s, e.cfg.StartupLostSteps)
	}
	if b := r.Bool(); r.Err() == nil && b != (e.batchCtrl != nil) {
		return fmt.Errorf("sim: snapshot batched=%v, engine batched=%v", b, e.batchCtrl != nil)
	}
	if f := r.String(); r.Err() == nil && f != e.ctrlEntry {
		return fmt.Errorf("sim: snapshot controller %q, engine has %q", f, e.ctrlEntry)
	}
	if s := r.String(); r.Err() == nil && s != e.sensorEntry {
		return fmt.Errorf("sim: snapshot sensor %q, engine has %q", s, e.sensorEntry)
	}
	if n := r.Int(); r.Err() == nil && n != e.transitionCount() {
		return fmt.Errorf("sim: snapshot schedule has %d transitions, engine schedule has %d", n, e.transitionCount())
	}
	return r.Err()
}

// factoryName is the fingerprint's controller entry: the family Name
// and, for a factory that states them (signal.Parameterized), its
// parameters, so a snapshot restores only into controllers that decide
// as the captured ones did. New and ResetWith format it once, when they
// set the factory (Engine.ctrlEntry).
func factoryName(f signal.Factory) string {
	if p, ok := f.(signal.Parameterized); ok {
		return f.Name() + " " + p.Params()
	}
	return f.Name()
}

// transitionCount is the fingerprint's schedule entry: the armed
// schedule's transition count, 0 when undisrupted.
func (e *Engine) transitionCount() int {
	if e.events == nil {
		return 0
	}
	return len(e.events.Transitions())
}

// snapshotSizeHint estimates the stream size so Snapshot allocates the
// buffer once; an underestimate only costs an append regrow.
func (e *Engine) snapshotSizeHint() int {
	const (
		roadFixed   = 8 * (numTurns + queuesPerRoad) // join counts + queue lengths
		vehBytes    = 8*7 + 4 + 4
		sensedBytes = 4 * 5
	)
	hint := 512 + len(e.roads)*roadFixed + e.arena.Len()*(vehBytes+16) +
		len(e.juncs)*16 + len(e.creditSlab)*8
	if e.sensor != nil {
		hint += len(e.links) * sensedBytes
	}
	return hint
}

// readSensed decodes the five columns a sensor writes of each link's
// observed pair. It rejects a negative count: sensors write through a
// saturation to [0, MaxInt32] and an outage blanks to 0, so a negative
// word is a corrupt stream, not a reading.
func (e *Engine) readSensed(r *snap.Reader) error {
	for gl, l := range e.links {
		in, out := e.pair(int32(gl))
		t := l.Turn
		in.Queued[t], in.Transit[t], in.Total = r.Int32(), r.Int32(), r.Int32()
		out.Total, out.Occ = r.Int32(), r.Int32()
		if min(in.Queued[t], in.Transit[t], in.Total, out.Total, out.Occ) < 0 {
			return fmt.Errorf("sim: snapshot observation link %d counts %d, %d, %d, %d, %d, one of them negative",
				gl, in.Queued[t], in.Transit[t], in.Total, out.Total, out.Occ)
		}
	}
	return r.Err()
}

// writeComponent records a collaborator's state in its own bounded
// section; stateless (or absent) collaborators get an empty one, so the
// layout does not shift with the configuration.
func writeComponent(w *snap.Writer, v any) {
	w.Section(func(sw *snap.Writer) {
		if s, ok := v.(snap.Snapshotter); ok {
			s.SnapshotState(sw)
		}
	})
}

// readComponent is writeComponent's inverse: the collaborator consumes
// its bounded section exactly. A stateful snapshot section paired with a
// stateless collaborator (or vice versa) fails the Close/decode check.
func readComponent(r *snap.Reader, v any, what string) error {
	sub := r.Section()
	if s, ok := v.(snap.Snapshotter); ok {
		if err := s.RestoreState(sub); err != nil {
			return fmt.Errorf("sim: restore %s: %w", what, err)
		}
	}
	if err := sub.Close(); err != nil {
		return fmt.Errorf("sim: restore %s: %w", what, err)
	}
	return nil
}
