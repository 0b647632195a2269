// Engine snapshot/restore (DESIGN.md §14): a versioned, deterministic,
// byte-exact capture of all mutable engine state. The stream is a pure
// function of that state — two snapshots of identical engine states
// compare equal with bytes.Equal — so the snapshot doubles as a state
// hash: the equivalence tests (and the chaos harness) pin "restore at
// step k, run to N" against "run to N uninterrupted" by comparing the
// final snapshot bytes.
//
// A snapshot is taken and restored between mini-slots (after stepOnce
// returns), which is what keeps the per-step scratch out of the format:
// the batch change set is empty at every inter-step point (sense fills
// it, the same step's control drains it), the link refresh stamps only
// matter within the step that wrote them, and the controllers' gain
// slabs are per-decision scratch. Restore rebuilds the control plane
// and re-arms a full sweep (AllChanged), which recomputes exactly the
// cached values the uninterrupted run carries — the gain caches are pure
// functions of the observation, so the next decision is bit-identical.
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
	snapshotVersion uint64 = 3
)

// Snapshot captures the engine's complete mutable state as a versioned
// byte stream: step and conservation counters, every road's lanes,
// transit list and effective capacity, the vehicle arena, per-junction
// phase and dark-mode state, the observation (and sensed-truth) slabs,
// the pending dirty-road set, the event cursor, and the state of every
// stateful collaborator (demand, router, sensor, controllers) via
// snap.Snapshotter. Registered hooks are NOT captured — like Reset,
// restore discards them.
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
	w.Int(e.numLinks)
	w.Float64(e.dt)
	w.Bool(e.cfg.MixedLanes)
	w.Int(e.cfg.StartupLostSteps)
	w.Bool(e.batchCtrl != nil)
	w.String(e.cfg.Controllers.Name())
	if e.sensor != nil {
		w.String(e.sensor.Name())
	} else {
		w.String("")
	}
	if e.events != nil {
		w.Int(len(e.events.Transitions()))
	} else {
		w.Int(0)
	}

	// Engine scalars.
	w.Int(e.step)
	w.Int(e.totals.Spawned)
	w.Int(e.totals.Entered)
	w.Int(e.totals.Exited)
	w.Int(e.totals.Served)
	w.Int(e.totals.RouteFallbacks)
	w.Bool(e.finalized)
	w.Int(e.evCursor)

	// Roads: counters, effective capacity, then the queues in queues()
	// order, the transit list last. The per-movement queued count goes
	// out as the v2 mixed-lane count: under MixedLanes it is that count,
	// and with separate turning lanes the lanes carry it and the field
	// is 0.
	for i := range e.roads {
		rs, row := &e.roads[i], &e.rows[i]
		w.Int(int(row.effCap))
		w.Int(int(row.occ))
		w.Int(int(row.total))
		for t := 0; t < numTurns; t++ {
			w.Int(int(row.transit[t]))
			if e.cfg.MixedLanes {
				w.Int(int(row.queued[t]))
			} else {
				w.Int(0)
			}
			w.Int(int(row.joins[t]))
		}
		for _, l := range rs.queues() {
			e.store.SnapshotLane(w, l)
		}
	}

	// Vehicle arena, column-major (the v2 format delta): the arena
	// serializes its SoA columns directly, pending movements included.
	e.arena.SnapshotState(w)

	// Junctions: phase pair, dark-mode state, service credits.
	for i := range e.juncs {
		js := &e.juncs[i]
		w.Int(int(js.current))
		w.Int(int(js.prev))
		w.Int32(js.darkSince)
		w.Int(js.darkPol.AllRedSteps)
		w.Int(js.darkPol.GreenSteps)
		w.Int(js.darkPol.AmberSteps)
		for _, c := range js.credits {
			w.Float64(c)
		}
	}

	// Observation slab; under a sensor the separate truth slab follows.
	writeObsSlab(w, e.obsSlab)
	w.Bool(e.sensor != nil)
	if e.sensor != nil {
		writeObsSlab(w, e.truthSlab[:e.numLinks])
	}

	// Pending dirty-road set, in marking order: the order fixes the
	// refresh (and hence sensor-draw) sequence of the next mini-slot.
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
// structure, controller factory, sensor and event schedule) — the
// snapshot's structural fingerprint is validated and mismatches
// rejected. Like Reset, controllers are rebuilt through the factory
// (their captured state is then restored into the fresh instances) and
// registered hooks are discarded — they belong to the interrupted
// run's recorders, so a caller that wants to keep listening must
// re-register via AddHooks after every Restore
// (TestRestoreHookReregistration pins this). An installed telemetry
// recorder is the exception: it survives and re-arms — its series are
// rewound (the observation history before the checkpoint is not part
// of the snapshot's semantic state) and recording resumes at the
// restored step (TestRestoreRearmsTelemetry). On error the engine
// state is undefined; Reset it or discard it.
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

	// Fresh controllers with a full sweep armed; their captured state is
	// restored below, and the first post-restore sweep recomputes the
	// gain caches bit-exactly (pure functions of the observation).
	if err := e.buildControlPlane(); err != nil {
		return err
	}

	e.step = r.Int()
	e.totals.Spawned = r.Int()
	e.totals.Entered = r.Int()
	e.totals.Exited = r.Int()
	e.totals.Served = r.Int()
	e.totals.RouteFallbacks = r.Int()
	e.finalized = r.Bool()
	e.evCursor = r.Int()

	e.staged, e.stagedLen = e.staged[:0], e.stagedLen[:0]
	for i := range e.roads {
		if err := e.restoreRoad(r, i); err != nil {
			return err
		}
	}
	if err := e.arena.RestoreState(r); err != nil {
		return fmt.Errorf("sim: restore vehicle arena: %w", err)
	}
	if err := e.linkStaged(); err != nil {
		return err
	}
	// Derived state is not part of the stream: rebuild netQueued and
	// the travel due-time index from the linked roads, and clear the
	// serve and control skip flags. Cleared flags force full serve
	// passes and full decisions, which re-derive them exactly
	// (DESIGN.md §11, §16).
	e.resetDerived()
	for i := range e.juncs {
		js := &e.juncs[i]
		js.current = signal.Phase(r.Int())
		js.prev = signal.Phase(r.Int())
		if !js.hasPhase(js.current) || !js.hasPhase(js.prev) {
			return fmt.Errorf("sim: snapshot junction %s phases current=%d prev=%d outside [%d, %d]",
				js.info.Label, js.current, js.prev, signal.Amber, len(js.j.Phases))
		}
		js.darkSince = r.Int32()
		js.darkPol.AllRedSteps = r.Int()
		js.darkPol.GreenSteps = r.Int()
		js.darkPol.AmberSteps = r.Int()
		for li := range js.credits {
			js.credits[li] = r.Float64()
		}
	}

	if err := readObsSlab(r, e.obsSlab, "observation"); err != nil {
		return err
	}
	sensed := r.Bool()
	if r.Err() == nil && sensed != (e.sensor != nil) {
		return fmt.Errorf("sim: snapshot sensed=%v, engine sensed=%v", sensed, e.sensor != nil)
	}
	if sensed {
		if err := readObsSlab(r, e.truthSlab[:e.numLinks], "truth"); err != nil {
			return err
		}
	}

	// Dirty set: clear the engine's current flags, then install the
	// snapshot's list verbatim (order fixes the next refresh sequence).
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

	// Refresh stamps only deduplicate within the step that wrote them;
	// at inter-step points every stamp is stale, so -1 is equivalent.
	for i := range e.linkSeen {
		e.linkSeen[i] = -1
	}

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
	// A stream can decode cleanly and still describe an impossible
	// state — an occupancy that disagrees with the road's queues, a
	// per-movement count that disagrees with its lane — and the run
	// would go on from it silently. Accept only a state that passes the
	// checks every finished run passes.
	if err := e.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: restored state: %w", err)
	}
	return nil
}

// restoreRoad decodes road i's counters and queues, rejecting values
// the road cannot hold: an effective capacity outside [1, Capacity] on
// a bounded road or other than 0 on an unbounded one, a negative
// counter, an occupancy, in-transit count, lane or transit-list length
// above a bounded road's capacity, a spawn queue longer than the
// vehicles spawned and not admitted, and any value that does not fit
// its int32 row field. Every queue's length is checked before its
// pairs are staged; linkStaged links them once the arena they name is
// restored.
// Consistency between the counters and the queues is left to
// CheckInvariants, which Restore runs last. The per-movement queued
// counts are rebuilt from the decoded lane lengths plus the decoded
// mixed-lane counts.
func (e *Engine) restoreRoad(r *snap.Reader, i int) error {
	road, row := &e.net.Roads[i], &e.rows[i]
	limit := math.MaxInt32
	if road.Bounded() {
		limit = road.Capacity
	}
	var bad error
	counter := func(what string, hi int) int32 {
		v := r.Int()
		if bad == nil && r.Err() == nil && (v < 0 || v > hi) {
			bad = fmt.Errorf("sim: road %d %s %d outside [0, %d]", i, what, v, hi)
		}
		return int32(v)
	}
	effCap := r.Int()
	if r.Err() == nil && (road.Bounded() && (effCap < 1 || effCap > road.Capacity) || !road.Bounded() && effCap != 0) {
		return fmt.Errorf("sim: road %d effective capacity %d, nominal capacity %d", i, effCap, road.Capacity)
	}
	row.effCap = int32(effCap)
	row.occ = counter("occupancy", limit)
	row.total = counter("queued total", limit)
	var mixed [numTurns]int32
	for t := 0; t < numTurns; t++ {
		row.transit[t] = counter("in-transit count", limit)
		mixed[t] = counter("mixed-lane count", limit)
		row.joins[t] = counter("join count", math.MaxInt32)
	}
	if err := r.Err(); err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	var lens [queuesPerRoad]int
	for k, what := range queueNames {
		lim := limit
		if k == spawnQueue {
			lim = max(e.totals.Spawned-e.totals.Entered, 0)
		}
		before := len(e.staged)
		var err error
		if e.staged, err = queue.ReadLane(r, e.staged, lim); err != nil {
			return fmt.Errorf("sim: road %d %s: %w", i, what, err)
		}
		lens[k] = len(e.staged) - before
		e.stagedLen = append(e.stagedLen, int32(lens[k]))
	}
	for t := 0; t < numTurns; t++ {
		q := lens[t] + int(mixed[t])
		if q > limit {
			return fmt.Errorf("sim: road %d queues %d vehicles for movement %d, capacity %d", i, q, t, limit)
		}
		row.queued[t] = int32(q)
	}
	return nil
}

// linkStaged pushes the pairs restoreRoad staged into the lanes, spawn
// queues and transit lists, now that the arena they name is restored.
// A pair is linked only when its vehicle lies in the arena, is where
// its queue says — in the network for a lane or transit list, spawned
// onto this road and not yet admitted for a spawn queue — and is not
// queued already: a vehicle
// listed twice would be served twice while another, listed nowhere,
// never left, and linking it twice would turn its lane into a cycle.
func (e *Engine) linkStaged() error {
	e.clearWhere()
	items, lens := e.staged, e.stagedLen
	for ri := range e.roads {
		for k, lane := range e.roads[ri].queues() {
			kind := queuedOnRoad
			if k == spawnQueue {
				kind = queuedWaiting
			}
			lane.Reset()
			n := lens[k]
			for _, it := range items[:n] {
				if err := e.listQueued(ri, queueNames[k], it.Vehicle, kind); err != nil {
					return err
				}
				e.store.Push(lane, int32(it.Vehicle), it.EnqueuedAt)
			}
			items = items[n:]
		}
		lens = lens[queuesPerRoad:]
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
	if n := r.Int(); r.Err() == nil && n != e.numLinks {
		return fmt.Errorf("sim: snapshot has %d links, engine has %d", n, e.numLinks)
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
	if f := r.String(); r.Err() == nil && f != e.cfg.Controllers.Name() {
		return fmt.Errorf("sim: snapshot controller family %q, engine has %q", f, e.cfg.Controllers.Name())
	}
	sn := ""
	if e.sensor != nil {
		sn = e.sensor.Name()
	}
	if s := r.String(); r.Err() == nil && s != sn {
		return fmt.Errorf("sim: snapshot sensor %q, engine has %q", s, sn)
	}
	nt := 0
	if e.events != nil {
		nt = len(e.events.Transitions())
	}
	if n := r.Int(); r.Err() == nil && n != nt {
		return fmt.Errorf("sim: snapshot schedule has %d transitions, engine schedule has %d", n, nt)
	}
	return r.Err()
}

// snapshotSizeHint estimates the stream size so Snapshot allocates the
// buffer once; an underestimate only costs an append regrow.
func (e *Engine) snapshotSizeHint() int {
	const (
		roadFixed = 8 * (3 + 3*numTurns + queuesPerRoad) // counters + queue lengths
		vehBytes  = 8*7 + 4 + 4
		linkBytes = 8 * (8 + 2*signal.NumTurns)
	)
	hint := 512 + len(e.roads)*roadFixed + e.arena.Len()*(vehBytes+24) +
		e.numLinks*linkBytes + len(e.juncs)*64
	if e.sensor != nil {
		hint += e.numLinks * linkBytes
	}
	return hint
}

// writeObsSlab serializes a link-observation slab in full — the dynamic
// queue fields and the engine-owned capacity/service fields (capacity
// events mutate the latter mid-run). Each int32 count goes out widened
// to the 8-byte word of the v2 format.
func writeObsSlab(w *snap.Writer, links []signal.LinkObs) {
	for i := range links {
		o := &links[i]
		w.Int(int(o.Queue))
		w.Int(int(o.InTransit))
		w.Int(int(o.ApproachQueue))
		w.Int(int(o.OutQueue))
		w.Int(int(o.OutOccupancy))
		w.Int(int(o.OutCapacity))
		w.Int(int(o.InCapacity))
		w.Float64(o.Mu)
		for t := 0; t < signal.NumTurns; t++ {
			w.Int(int(o.OutTurnQueue[t]))
		}
		for t := 0; t < signal.NumTurns; t++ {
			w.Int(int(o.OutTurnJoins[t]))
		}
	}
}

// readObsSlab is writeObsSlab's inverse. It rejects a count outside
// [0, MaxInt32]: every writer of an observation — the refresh from the
// road rows, a sensor's saturated estimate, an outage's blanking, the
// capacities — writes a value in that range, so a word outside it is a
// corrupt stream, not a reading, and would not fit the int32 field.
func readObsSlab(r *snap.Reader, links []signal.LinkObs, what string) error {
	var bad error
	count := func(li int, field string) int32 {
		v := r.Int()
		if bad == nil && r.Err() == nil && (v < 0 || v > math.MaxInt32) {
			bad = fmt.Errorf("sim: snapshot %s link %d %s %d outside [0, %d]", what, li, field, v, math.MaxInt32)
		}
		return int32(v)
	}
	for i := range links {
		o := &links[i]
		o.Queue = count(i, "queue")
		o.InTransit = count(i, "in-transit count")
		o.ApproachQueue = count(i, "approach queue")
		o.OutQueue = count(i, "outgoing queue")
		o.OutOccupancy = count(i, "outgoing occupancy")
		o.OutCapacity = count(i, "outgoing capacity")
		o.InCapacity = count(i, "incoming capacity")
		o.Mu = r.Float64()
		for t := 0; t < signal.NumTurns; t++ {
			o.OutTurnQueue[t] = count(i, "outgoing movement queue")
		}
		for t := 0; t < signal.NumTurns; t++ {
			o.OutTurnJoins[t] = count(i, "outgoing movement joins")
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return bad
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
