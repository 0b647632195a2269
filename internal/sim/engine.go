// Package sim implements the mesoscopic queue-network traffic simulator
// that substitutes for SUMO in this reproduction (see DESIGN.md §2).
//
// The model follows Section II of the paper directly: a discrete-time
// system monitored at mini-slots of Δt, roads with finite capacities W_i,
// dedicated turning lanes queuing per feasible link, Poisson arrivals, and
// per-link service rates µ_i^{i'}. Each mini-slot the engine
//
//  1. asks every junction controller for c(k) given the observed Q(k),
//  2. serves active links (S(k,k+1)), blocked physically when the
//     outgoing road is at capacity, regardless of the controller,
//  3. completes road travel: vehicles reaching the stop line join their
//     movement's turning lane,
//  4. generates arrivals (A(k,k+1)) and admits waiting vehicles onto
//     entry roads with spare capacity.
//
// Everything is deterministic given the seed: iteration follows slice
// order, arrival streams are split per road, and a road's vehicles reach
// its stop line in the order they entered it.
package sim

import (
	"fmt"
	"math"
	"time"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/queue"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/vehicle"
)

// Config assembles a simulation.
type Config struct {
	// Net is the road network (required).
	Net *network.Network
	// Controllers builds one controller per junction (required).
	Controllers signal.Factory
	// Demand generates exogenous arrivals (required).
	Demand ArrivalProcess
	// Router assigns routes to spawned vehicles. Nil defaults to
	// StraightRouter.
	Router RouteChooser
	// Routes is the interned route table the Router's RouteIDs index
	// into. It must be immutable for the lifetime of the run; engines
	// sharing one scenario artifact share the table by reference
	// (DESIGN.md §5). Nil defaults to a table holding only the
	// straight-through route, matching StraightRouter.
	Routes *vehicle.RouteTable
	// DeltaT is the mini-slot length in seconds. Zero defaults to 1.
	DeltaT float64
	// StartupLostSteps models startup lost time: for this many
	// mini-slots after a green onset (any phase change, including
	// amber-to-green), the fresh phase's links serve nothing while the
	// stopped queue accelerates. It applies to every controller alike.
	// Zero defaults to 2 s of lost time; negative disables it.
	StartupLostSteps int
	// MixedLanes enables the head-of-line-blocking extension (paper
	// Section IV Q4): each approach queues in a single mixed lane and
	// only the head vehicle's movement can be served.
	MixedLanes bool
	// ExpectedVehicles pre-sizes the vehicle arena (and the parallel
	// per-vehicle bookkeeping, the lanes' link store included) for the
	// expected spawn count of the run's demand horizon, so the spawn
	// path never grows a slice mid-run. Zero leaves the arena to grow on
	// demand.
	ExpectedVehicles int
	// Sensor filters the queue observations controllers see
	// (internal/sensing, DESIGN.md §10). Nil means perfect observation:
	// controllers read the engine's ground-truth road rows, the
	// zero-overhead path. A non-nil sensor receives every link whose
	// road state changed during the previous mini-slot and writes the
	// observed rows controllers decide on. Sensors are
	// engine-local; never share one across concurrently running
	// engines.
	Sensor sensing.Sensor
	// Events is the compiled disruption schedule the run replays
	// (internal/event, DESIGN.md §12). Nil runs undisrupted. The
	// schedule must have been compiled against a network with this
	// engine's road/link layout and mini-slot length; it is immutable
	// and may be shared across engines. Note the schedule only drives
	// the engine-side disruptions (capacity, dark-mode, dirty marks) —
	// demand surges and sensor outages are woven into Demand and Sensor
	// at scenario build time (Schedule.WrapRate/WrapSensor).
	Events *event.Schedule
	// Control selects how the control substep dispatches to the
	// controller factory (DESIGN.md §11): the zero value
	// (signal.ControlAuto) runs the batched control plane whenever
	// Controllers implements signal.BatchFactory and the per-junction
	// Decide loop otherwise; signal.ControlPerJunction forces the
	// per-junction loop; signal.ControlBatched forces batched dispatch,
	// adapter-wrapping per-junction controllers when the factory has no
	// batch implementation. The two paths are pinned bit-for-bit equal.
	Control signal.ControlMode
}

// Totals carries the conservation counters of a run.
type Totals struct {
	// Spawned counts vehicles generated by the arrival process; Entered
	// counts those admitted onto their entry road; Exited counts those
	// served onto a boundary exit road.
	Spawned, Entered, Exited int
	// Served counts vehicle-through-junction service events.
	Served int
	// RouteFallbacks counts vehicles whose planned movement did not
	// exist at a junction and were rerouted to an existing one.
	RouteFallbacks int
}

// Hooks receive simulation events. Nil members are skipped. Per-step
// series are read between Run calls or off an installed telemetry
// recorder (InstallTelemetry), not through hooks.
type Hooks struct {
	// Phase fires after a controller decision, once per junction per
	// mini-slot.
	Phase func(junction network.NodeID, step int, phase signal.Phase)
}

// numTurns mirrors the three movements of network.Turns.
const numTurns = 3

// A road's counters are one signal.Row: everything controllers and
// sensors read of the road and everything serve, travel and arrivals
// update per vehicle. The engine keeps the rows of all roads back to
// back in one slab indexed by road ID (Engine.rows), the truth rows a
// sensor-free engine's controllers read through the link table
// (DESIGN.md §5, §6). The counters are int32: a road holds at most
// Capacity vehicles, and a cumulative join count is bounded by the
// vehicles spawned, which the arena already caps at int32 IDs. Each
// column changes only where the road is marked dirty, the incremental
// sense protocol's contract:
//   - Queued[t] is the length of turning lane t, or under
//     Config.MixedLanes the vehicles in the mixed lane whose pending
//     movement is t; Total is their sum, the spawn queue excluded;
//   - Transit[t] counts the vehicles on the transit list bound for t;
//   - Joins[t] counts every vehicle that has joined the movement-t
//     queue since the last Reset (DESIGN.md §13), incremented where a
//     vehicle enters a lane;
//   - Occ is Total plus the transit list, the occupancy capacity
//     blocking applies to;
//   - Cap is Road.Capacity outside incident windows and the event
//     schedule's reduced value inside them (clamped to >= 1 at compile
//     time, so it never collides with the unbounded encoding 0).
//     Admission checks read it (Row.Full); lanes own no storage, so
//     lowering and restoring it mid-run never reallocates
//     (DESIGN.md §12).

// roadState is the rest of one road's runtime state: the queues (the
// turning lanes or the mixed lane, the entry spawn queue and the transit
// list of vehicles heading for the stop line) and the values New
// derives once from the network, so serving a vehicle onto the road
// reads nothing of the network. Its counters live in the road's
// roadRow. Every queue is a header threaded through the engine's link
// store (Engine.store).
type roadState struct {
	// travel is Road.TravelTime(), the free-flow time to the stop line.
	travel float64
	// feasible has bit t set when movement t has a link at the junction
	// ahead, for the road's approach; resolveTurn tests it instead of
	// scanning the junction's links.
	feasible uint8
	exits    bool // road ends at a terminal
	lanes    [numTurns]queue.Lane
	// mixed replaces lanes when Config.MixedLanes is set.
	mixed queue.Lane
	spawn queue.Lane
	// transit lists the vehicles travelling toward the stop line with
	// their arrival times. They share the travel time and enter in
	// clock order, so the list is in arrival order, head first.
	transit queue.Lane
}

// canQueue reports whether a run can queue a vehicle bound for movement
// t on the road: the junction ahead has a link for t, or has none for
// the road's approach at all, in which case resolveTurn keeps each
// vehicle's planned movement.
func (rs *roadState) canQueue(t network.Turn) bool {
	return t < numTurns && (rs.feasible == 0 || rs.feasible>>t&1 != 0)
}

// A road's queues in snapshot order: the turning lanes, the mixed lane,
// the spawn queue, then the transit list. The ones before transitList
// hold waiting vehicles.
const (
	spawnQueue    = numTurns + 1
	transitList   = numTurns + 2
	queuesPerRoad = numTurns + 3
)

// queueNames names each of a road's queues, in snapshot order, for
// errors.
var queueNames = [queuesPerRoad]string{"lane 0", "lane 1", "lane 2", "mixed lane", "spawn queue", "transit list"}

// queues returns the road's queues in snapshot order.
func (rs *roadState) queues() [queuesPerRoad]*queue.Lane {
	return [...]*queue.Lane{&rs.lanes[0], &rs.lanes[1], &rs.lanes[2], &rs.mixed, &rs.spawn, &rs.transit}
}

// recountQueued recomputes a road's queued counters from its lanes, the
// slow path the incremental counters are checked against. Under
// MixedLanes the mixed lane counts by each vehicle's pending movement.
func (e *Engine) recountQueued(rs *roadState) (perTurn [numTurns]int, total int) {
	for t := range rs.lanes {
		perTurn[t] = rs.lanes[t].Len()
	}
	for it := range e.store.Items(&rs.mixed) {
		perTurn[e.arena.PendingTurn(vehicle.ID(it.Vehicle))]++
	}
	for _, n := range perTurn {
		total += n
	}
	return perTurn, total
}

// junctionState binds a junction to its controller.
type junctionState struct {
	j    *network.Junction
	ctrl signal.Controller
	info signal.JunctionInfo
	// current is c(k) once control has run; prev is c(k-1), used to
	// detect green onsets for the startup-lost-time debt.
	current signal.Phase
	prev    signal.Phase
	credits []float64
	// obs is the junction's per-junction observation: its window of the
	// batch's link table and the batch's rows (setSensor points both).
	obs signal.Obs
	// linkBase is the junction's offset into the engine's dense global
	// link index space, the key sensors track per-link state under.
	linkBase int32
	// phaseActive[p-1][li] reports whether phase p activates link li; it
	// is the junction's phase table flattened into a membership matrix
	// once at construction so serve never rebuilds a set per mini-slot.
	phaseActive [][]bool
	// darkSince is the mini-slot the junction's controller went offline
	// at (-1 when the controller is live), and darkPol the degraded
	// policy applied while it is. The controller keeps deciding every
	// step — its state advances identically under both dispatch modes —
	// but applyDecision discards the decision and actuates the policy.
	// Both follow from the schedule and the step: resetDerived replays
	// them.
	darkSince int32
	darkPol   signal.DarkPolicy
}

// Engine is a running simulation. Construct with New; it is not safe for
// concurrent use. Engines may share read-only collaborators (network,
// route table) with other engines; all mutable state is engine-local.
type Engine struct {
	cfg    Config
	net    *network.Network
	routes *vehicle.RouteTable
	dt     float64
	step   int
	// rows is the counter slab, one signal.Row per road indexed by road
	// ID; roads holds the same roads' queues. links is the static link
	// table over rows, one entry per link in global link order.
	rows    []signal.Row
	links   []signal.Link
	roads   []roadState
	juncs   []junctionState
	arena   vehicle.Arena
	entries []network.RoadID
	hooks   []Hooks
	totals  Totals
	// store links every queue of the engine — lanes, spawn queues and
	// transit lists — through one entry per vehicle ID (a vehicle is in
	// at most one queue at a time). It is reserved with the arena, grows
	// with it when spawns pass ExpectedVehicles, and survives Reset.
	store queue.Store
	// where is CheckInvariants' and Restore's per-vehicle scratch: the
	// kind of queue (queuedNone, queuedOnRoad, queuedWaiting) each
	// vehicle was found in, so a vehicle listed twice or nowhere is
	// caught. staged holds the pairs of the one queue Restore is
	// decoding. Neither is state.
	where  []uint8
	staged []queue.Item
	// juncIndex maps a junction's node to its index in juncs (dense:
	// node IDs are compact), -1 for non-junction nodes. It keeps
	// CurrentPhase map-free.
	juncIndex []int32
	// hasPhaseHook caches whether any registered Hooks carries a Phase
	// callback, so the per-decision hook loop vanishes from the hot path
	// when nothing listens.
	hasPhaseHook bool
	finalized    bool
	// ctrlEntry and sensorEntry are the snapshot fingerprint's
	// controller and sensor entries (factoryName, Sensor.Name; "" for
	// no sensor), formatted once where the factory or sensor is set.
	ctrlEntry, sensorEntry string

	// Incremental observation maintenance (DESIGN.md §10): the engine
	// marks a road dirty whenever its row changes (lane push/pop,
	// transit, occupancy, capacity), and the sense substep wakes the
	// junctions reading a dirty road. sensor is cfg.Sensor, hoisted for
	// the hot path; dirtyRoads is the pending dirty set (pre-sized to
	// the road count, so marking never allocates).
	sensor     sensing.Sensor
	dirtyRoads []int32
	roadDirty  []bool
	// Under a sensor, controllers read the observed slab obsRows
	// through pairs, the link table that points link gl at its pair
	// (signal.PairRows); the sensor fills the pair from the truth rows.
	// sense lists the links reading a dirty road for it in listed:
	// roadLinks[r] lists the global links whose observation reads road
	// r (as incoming or outgoing road), and linkSeen[gl] holds the step
	// a global link was last listed at, deduplicating links whose two
	// roads are both dirty. All five are nil until a sensor is first
	// installed.
	pairs     []signal.Link
	obsRows   []signal.Row
	roadLinks [][]int32
	linkSeen  []int32
	listed    []int32

	// Batched control plane (DESIGN.md §11). batch holds the rows and
	// link table controllers read: rows and links without a sensor,
	// obsRows and pairs with one. batchCtrl is non-nil exactly when the
	// control substep dispatches batched.
	batch     signal.Batch
	batchCtrl signal.BatchController

	// Event plane (DESIGN.md §12): events is cfg.Events hoisted for the
	// hot path, evCursor the next pending transition in its sorted
	// transition list: the number of transitions due before the step,
	// which resetDerived counts (replaying the effective capacities and
	// dark state they leave), so the same schedule replays bit-for-bit.
	events   *event.Schedule
	evCursor int

	// Telemetry plane (DESIGN.md §15): telem is non-nil exactly when a
	// telemetry recorder is installed (InstallTelemetry) — the nil
	// check is the hot path's fast-path gate, the same caching idea as
	// hasPhaseHook. Unlike hooks the recorder survives Reset/ResetWith
	// and Restore (it is rewound/re-armed, not discarded) and is
	// excluded from the snapshot byte stream: recorded series are
	// observation-only. netQueued is the incrementally maintained sum of
	// every road's queuedTotal, so the per-step network sample is O(1)
	// instead of an O(roads) scan; it is derived state (recomputed on
	// Restore, not serialized) and maintained at the same sites as the
	// per-road counter.
	telem     *telemetryState
	netQueued int

	// Batched serve plane (DESIGN.md §16). phaseTab is the flattened
	// phase→link membership over the global link index space,
	// serveSites the per-link resolved road states and service
	// constants, creditSlab the dense credit storage every junction's
	// credits window aliases. serveIdle/juncWoke/serveSub drive the
	// skip rule: serveIdle[j] caches whether junction j's last full
	// pass ended with every active lane empty, juncWoke[j] whether any
	// of its incoming roads changed since (fanned out by sense from
	// the dirty set via roadWakeJunc, consumed by the next full pass),
	// serveSub[j] whether the last pass left every active credit
	// sub-threshold (credit + µΔt < 1 — the junction cannot serve the
	// next mini-slot regardless of lane state). All three are derived
	// state — cleared, not serialized, on Reset and Restore
	// (resetServeSkip documents why clearing is exact).
	phaseTab   signal.PhaseTable
	serveSites []serveSite
	creditSlab []float64
	serveIdle  []uint8
	juncWoke   []bool
	serveSub   []bool
	// roadWakeJunc[r] is the index of road r's head junction — the one
	// junction whose serve pass reads r's lanes (r is the In road of its
	// links) — or -1 when no link consumes r (exit roads). It is the
	// serve plane's wake fan-out: an idle-green claim depends only on
	// the incoming lanes staying empty (an empty-lane pass fails the
	// peek before ever reading the outgoing road), so a dirty road needs
	// to wake exactly this junction, not every junction touching it.
	roadWakeJunc []int32

	// Quiet-junction control skip (DESIGN.md §11). roadTailJunc[r] is
	// the index of road r's tail junction — the one whose links read r
	// as their Out road — or -1 (entry roads). A dirty road marks
	// ctrlDirty on both its head (roadWakeJunc) and its tail junction:
	// between them they own every link observation the road feeds.
	// settled[j] records that junction j's last decision kept its
	// Current green while live (not dark). The batched control substep
	// offers batch.Quiet[j] = settled[j] && !ctrlDirty[j]. All three
	// flag arrays are derived state, cleared on Reset and Restore.
	roadTailJunc []int32
	ctrlDirty    []bool
	settled      []bool
	// tailDue[r] is the stop-line arrival time at the head of road r's
	// transit list, +Inf while the list is empty: the due-time index
	// completeTravel scans instead of probing every list. enterRoad
	// lowers it, completeTravel refreshes it after a road's pops. It is
	// derived state, rebuilt from the lists on Reset and Restore and
	// cross-checked by CheckInvariants.
	tailDue []float64
}

// New validates the configuration, instantiates one controller per
// junction, and returns a ready engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("sim: Config.Net is required")
	}
	if cfg.Controllers == nil {
		return nil, fmt.Errorf("sim: Config.Controllers is required")
	}
	if cfg.Demand == nil {
		return nil, fmt.Errorf("sim: Config.Demand is required")
	}
	if cfg.Router == nil {
		cfg.Router = StraightRouter{}
	}
	if cfg.DeltaT == 0 {
		cfg.DeltaT = 1
	}
	if cfg.DeltaT < 0 {
		return nil, fmt.Errorf("sim: Config.DeltaT must be positive, got %v", cfg.DeltaT)
	}
	switch {
	case cfg.StartupLostSteps == 0:
		cfg.StartupLostSteps = 2
	case cfg.StartupLostSteps < 0:
		cfg.StartupLostSteps = 0
	}
	if cfg.Routes == nil {
		if rt, ok := cfg.Router.(RouteTabler); ok {
			cfg.Routes = rt.RouteTable()
		} else {
			cfg.Routes = vehicle.NewRouteTable()
		}
	}
	e := &Engine{
		cfg:       cfg,
		net:       cfg.Net,
		routes:    cfg.Routes,
		dt:        cfg.DeltaT,
		juncIndex: make([]int32, len(cfg.Net.Nodes)),
		ctrlEntry: factoryName(cfg.Controllers),
	}
	for i := range e.juncIndex {
		e.juncIndex[i] = -1
	}
	if cfg.ExpectedVehicles > 0 {
		e.arena.Reserve(cfg.ExpectedVehicles)
		e.store.Reserve(cfg.ExpectedVehicles)
	}

	e.rows = make([]signal.Row, len(e.net.Roads))
	e.roads = make([]roadState, len(e.net.Roads))
	e.entries = append(e.entries, e.net.EntryRoads()...)
	// A road's queues reserve nothing: they thread through the link
	// store, which holds one entry per vehicle whatever its queue
	// (DESIGN.md §5).
	for i := range e.net.Roads {
		r := &e.net.Roads[i]
		if r.Capacity > math.MaxInt32 {
			return nil, fmt.Errorf("sim: road %q capacity %d does not fit an int32 counter", r.Name, r.Capacity)
		}
		j := e.net.Junction(r.To)
		rs := &e.roads[i]
		rs.travel, rs.exits = r.TravelTime(), j == nil
		if j != nil {
			approach := r.Heading.Opposite()
			for _, t := range network.Turns {
				if j.LinkFor(approach, t) >= 0 {
					rs.feasible |= 1 << t
				}
			}
		}
	}

	wstar := e.net.MaxCapacity()
	totalLinks := 0
	for i := range e.net.Junctions {
		totalLinks += len(e.net.Junctions[i].Links)
	}
	// Every junction's links live back-to-back in one static table over
	// the truth rows: junction j's obs.Links is a window of it, and the
	// whole table is the batched control plane's (signal.Batch.Links)
	// with no copying (DESIGN.md §6, §11).
	e.links = make([]signal.Link, 0, totalLinks)
	juncOff := make([]int32, 0, len(e.net.Junctions)+1)
	infos := make([]signal.JunctionInfo, 0, len(e.net.Junctions))
	for i := range e.net.Junctions {
		j := &e.net.Junctions[i]
		info := signal.JunctionInfo{
			Label:    e.net.Node(j.Node).Name,
			NumLinks: len(j.Links),
			WStar:    wstar,
			DeltaT:   e.dt,
		}
		for _, p := range j.Phases {
			info.Phases = append(info.Phases, append([]int(nil), p...))
		}
		if err := info.Validate(); err != nil {
			return nil, err
		}
		phaseActive := make([][]bool, len(j.Phases))
		for pi, p := range j.Phases {
			phaseActive[pi] = make([]bool, len(j.Links))
			for _, li := range p {
				phaseActive[pi][li] = true
			}
		}
		base := len(e.links)
		for li := range j.Links {
			l := &j.Links[li]
			e.links = append(e.links, signal.Link{Mu: l.Mu, In: int32(l.In), Out: int32(l.Out), Turn: int32(l.Turn)})
		}
		e.juncIndex[j.Node] = int32(len(e.juncs))
		e.juncs = append(e.juncs, junctionState{
			j:       j,
			info:    info,
			current: signal.Amber,
			// credits is bound to its creditSlab window by
			// buildServePlane below, obs to its link window by
			// setSensor.
			linkBase:    int32(base),
			phaseActive: phaseActive,
		})
		juncOff = append(juncOff, int32(base))
		infos = append(infos, info)
	}
	juncOff = append(juncOff, int32(len(e.links)))
	e.batch = signal.Batch{
		JuncOff: juncOff,
		Current: make([]signal.Phase, len(e.juncs)),
		Decided: make([]signal.Phase, len(e.juncs)),
		Infos:   infos,
		Quiet:   make([]bool, len(e.juncs)),
	}
	e.ctrlDirty = make([]bool, len(e.juncs))
	e.settled = make([]bool, len(e.juncs))
	e.tailDue = make([]float64, len(e.roads))
	e.buildServePlane()
	if err := e.buildControlPlane(); err != nil {
		return nil, err
	}

	// The wake fan-out: each road's head and tail junction. The dirty
	// set is pre-sized here so the step loop never allocates.
	e.roadWakeJunc = make([]int32, len(e.net.Roads))
	e.roadTailJunc = make([]int32, len(e.net.Roads))
	for i := range e.roadWakeJunc {
		e.roadWakeJunc[i] = -1
		e.roadTailJunc[i] = -1
	}
	for ji := range e.juncs {
		js := &e.juncs[ji]
		for li := range js.j.Links {
			l := &js.j.Links[li]
			e.roadWakeJunc[l.In] = int32(ji)
			e.roadTailJunc[l.Out] = int32(ji)
		}
	}
	e.dirtyRoads = make([]int32, 0, len(e.net.Roads))
	e.roadDirty = make([]bool, len(e.net.Roads))
	e.setSensor(cfg.Sensor)
	if err := e.checkEvents(cfg.Events); err != nil {
		return nil, err
	}
	e.events = cfg.Events
	e.resetDerived()
	return e, nil
}

// checkEvents verifies a disruption schedule was compiled against this
// engine's network shape and step grid, so a schedule armed on the
// wrong artifact fails loudly at construction (or ResetWith) instead of
// silently disrupting the wrong roads.
func (e *Engine) checkEvents(s *event.Schedule) error {
	if s == nil {
		return nil
	}
	if s.NumRoads() != len(e.net.Roads) || s.NumLinks() != len(e.links) {
		return fmt.Errorf("sim: event schedule compiled for %d roads / %d links, engine has %d / %d",
			s.NumRoads(), s.NumLinks(), len(e.net.Roads), len(e.links))
	}
	if s.DeltaT() != e.dt {
		return fmt.Errorf("sim: event schedule compiled for Δt=%v, engine steps at Δt=%v", s.DeltaT(), e.dt)
	}
	for _, tr := range s.Transitions() {
		switch tr.Kind {
		case event.TransCapacity, event.TransMark:
			if tr.Road < 0 || int(tr.Road) >= len(e.net.Roads) {
				return fmt.Errorf("sim: event transition targets road %d outside the network", tr.Road)
			}
		case event.TransDarkOn, event.TransDarkOff:
			if tr.Junction < 0 || int(tr.Junction) >= len(e.juncIndex) || e.juncIndex[tr.Junction] < 0 {
				return fmt.Errorf("sim: event transition targets node %d, which is not a junction", tr.Junction)
			}
		default:
			return fmt.Errorf("sim: unknown event transition kind %d", int(tr.Kind))
		}
	}
	return nil
}

// buildControlPlane (re)constructs the engine's controllers for the
// configured factory and dispatch mode (DESIGN.md §11): either the
// factory's batched controller, or one per-junction controller per
// junction (adapter-wrapped in forced-batched mode). Exactly one of the
// two sets is built — a factory-batched engine constructs no unused
// per-junction controllers, which matters on the engine-reuse path
// where this runs on every sweep-cell rewind. New calls it once and
// Reset on every rewind (controllers are stateful).
func (e *Engine) buildControlPlane() error {
	e.batchCtrl = nil
	bf, hasBatch := e.cfg.Controllers.(signal.BatchFactory)
	if len(e.juncs) > 0 && hasBatch && e.cfg.Control != signal.ControlPerJunction {
		bc, err := bf.NewBatch(e.batch.Infos)
		if err != nil {
			return fmt.Errorf("sim: batched controller: %w", err)
		}
		e.batchCtrl = bc
		for i := range e.juncs {
			e.juncs[i].ctrl = nil // only the batched controller decides
		}
	} else {
		for i := range e.juncs {
			js := &e.juncs[i]
			ctrl, err := e.cfg.Controllers.New(js.info)
			if err != nil {
				return fmt.Errorf("sim: junction %s: %w", js.info.Label, err)
			}
			js.ctrl = ctrl
		}
		if len(e.juncs) > 0 && e.cfg.Control == signal.ControlBatched {
			// Forced batched dispatch without factory support: adapt the
			// per-junction controllers.
			ctrls := make([]signal.Controller, len(e.juncs))
			for i := range e.juncs {
				ctrls[i] = e.juncs[i].ctrl
			}
			e.batchCtrl = signal.Batched(ctrls...)
		}
	}
	return nil
}

// Batched reports whether the control substep currently dispatches
// through the batched control plane (signal.BatchController) rather
// than the per-junction Decide loop.
func (e *Engine) Batched() bool { return e.batchCtrl != nil }

// setSensor installs (or clears) the observation sensor and points the
// batch and every junction's observation at the rows controllers read:
// with none, the truth rows through the link table; with one, the
// observed slab through the pair table. The first install builds the
// sensor's state (buildSensorState). Callers rewind the engine
// afterwards (New starts at step zero, ResetWith resets), so
// resetDerived fills the pairs' engine-owned columns and the listing
// stamps.
func (e *Engine) setSensor(s sensing.Sensor) {
	e.cfg.Sensor = s
	e.sensor = s
	e.sensorEntry = ""
	links, rows := e.links, e.rows
	if s != nil {
		e.sensorEntry = s.Name()
		if e.pairs == nil {
			e.buildSensorState()
		}
		links, rows = e.pairs, e.obsRows
		s.Prepare(len(e.links))
	}
	e.batch.Links, e.batch.Rows = links, rows
	for i := range e.juncs {
		js := &e.juncs[i]
		lo, hi := js.linkBase, js.linkBase+int32(len(js.j.Links))
		js.obs.Links, js.obs.Rows = links[lo:hi:hi], rows
	}
}

// buildSensorState builds what only a sensed engine reads: the pair
// table and the observed slab it indexes, and the listing state sense
// fills the sensor's list with. Each road's roadLinks list, in junction
// and link order, is a window of one slab, sized by a counting pass, so
// the adjacency costs one allocation instead of a few appends per road.
// The list and the stamps are pre-sized so the step loop never
// allocates.
func (e *Engine) buildSensorState() {
	e.pairs = make([]signal.Link, len(e.links))
	for gl, l := range e.links {
		l.In, l.Out = signal.PairRows(int32(gl))
		e.pairs[gl] = l
	}
	e.obsRows = make([]signal.Row, 2*len(e.links))
	deg := make([]int, len(e.net.Roads))
	refs := 0
	for _, l := range e.links {
		deg[l.In]++
		refs++
		if l.Out != l.In {
			deg[l.Out]++
			refs++
		}
	}
	slab := make([]int32, refs)
	e.roadLinks = make([][]int32, len(e.net.Roads))
	for r, d := range deg {
		e.roadLinks[r], slab = slab[:0:d], slab[d:]
	}
	for gl, l := range e.links {
		e.roadLinks[l.In] = append(e.roadLinks[l.In], int32(gl))
		if l.Out != l.In {
			e.roadLinks[l.Out] = append(e.roadLinks[l.Out], int32(gl))
		}
	}
	e.linkSeen = make([]int32, len(e.links))
	e.listed = make([]int32, 0, len(e.links))
}

// Sensor returns the installed observation sensor, nil for perfect
// observation.
func (e *Engine) Sensor() sensing.Sensor { return e.sensor }

// Events returns the armed disruption schedule, nil when the engine
// runs undisrupted.
func (e *Engine) Events() *event.Schedule { return e.events }

// EffectiveCapacity returns a road's current effective capacity: its
// nominal capacity outside incident windows (0 for unbounded roads),
// the schedule's reduced value inside them.
func (e *Engine) EffectiveCapacity(rid network.RoadID) int {
	if int(rid) >= len(e.roads) || rid < 0 {
		return 0
	}
	return int(e.rows[rid].Cap)
}

// Dark reports whether the junction's controller is currently offline
// under a dark-mode event.
func (e *Engine) Dark(junction network.NodeID) bool {
	if junction < 0 || int(junction) >= len(e.juncIndex) {
		return false
	}
	if i := e.juncIndex[junction]; i >= 0 {
		return e.juncs[i].darkSince >= 0
	}
	return false
}

// Reset rewinds the engine to step zero for another run with the given
// seed, reusing the vehicle arena and the queues' link store so
// repeated runs (sweeps, multi-seed aggregation) stop re-allocating whole
// engines. Controllers are rebuilt through the configured factory (they
// are stateful); the demand process and router are reseeded when they
// implement Reseeder, otherwise they continue their streams. Registered
// hooks are discarded — they belong to the finished run's recorders —
// so re-register via AddHooks after Reset. An installed telemetry
// recorder is NOT discarded: it is rewound and re-armed for the new run
// (InstallTelemetry documents the survival contract).
func (e *Engine) Reset(seed uint64) error {
	if err := e.buildControlPlane(); err != nil {
		return err
	}
	for i := range e.juncs {
		js := &e.juncs[i]
		js.current = signal.Amber
		js.prev = signal.Amber
		clear(js.credits)
	}
	// A sensor's readings are state, and it starts the run having read
	// nothing.
	if e.sensor != nil {
		clear(e.obsRows)
	}
	for _, rid := range e.dirtyRoads {
		e.roadDirty[rid] = false
	}
	e.dirtyRoads = e.dirtyRoads[:0]
	for i := range e.roads {
		for _, q := range e.roads[i].queues() {
			q.Reset()
		}
		e.rows[i].Joins = [numTurns]int32{}
	}
	e.arena.Reset()
	clear(e.hooks) // drop recorder closures before truncating
	e.hooks = e.hooks[:0]
	e.hasPhaseHook = false
	e.step = 0
	e.totals = Totals{}
	e.finalized = false
	e.resetDerived()
	if r, ok := e.cfg.Demand.(Reseeder); ok {
		r.Reseed(seed)
	}
	if r, ok := e.cfg.Router.(Reseeder); ok {
		r.Reseed(seed)
	}
	if e.sensor != nil {
		e.sensor.Reseed(seed)
	}
	if e.telem != nil {
		e.rearmTelemetry()
	}
	return nil
}

// resetDerived rebuilds everything the engine derives from its state
// (DESIGN.md §3, §14). New, Reset and Restore all end here, once the
// queues, the arena, the step and each road's join counts hold their
// final values, so the three cannot disagree, and the snapshot stream
// carries none of it:
//   - each road row: Queued[t] and Total from its lanes (the mixed
//     lane by each vehicle's pending turn), Transit[t] from the pending
//     turns on its transit list, Occ and the nominal Cap;
//   - the network queue total and the travel due-time index;
//   - the event cursor, as the number of transitions due before the
//     current step, and the effective capacities and dark state those
//     transitions leave, replayed in order;
//   - Spawned, Entered, Exited and Served from the arena;
//   - under a sensor, the columns of each link's observed pair the
//     engine owns, from the rows (the sensed columns are state);
//   - the listing stamps, under a sensor, and the serve and control
//     skip flags.
//
// Clearing the skip flags is conservative, never lossy: the next serve
// pass and the next decision round run in full, and each re-derives
// its flags (resetServeSkip; DESIGN.md §11, "Quiet junctions").
func (e *Engine) resetDerived() {
	e.netQueued = 0
	for ri := range e.roads {
		rs, road := &e.roads[ri], &e.net.Roads[ri]
		row := signal.Row{Joins: e.rows[ri].Joins, Cap: int32(road.Capacity)}
		// recountQueued's count, inline: as a call it made Reset about
		// 15 % slower on a 16×16 grid (2-vCPU amd64 VM).
		for t := range rs.lanes {
			row.Queued[t] = int32(rs.lanes[t].Len())
		}
		for it := range e.store.Items(&rs.mixed) {
			row.Queued[e.arena.PendingTurn(vehicle.ID(it.Vehicle))]++
		}
		if !rs.exits {
			for it := range e.store.Items(&rs.transit) {
				row.Transit[e.arena.PendingTurn(vehicle.ID(it.Vehicle))]++
			}
		}
		row.Total = row.Queued[0] + row.Queued[1] + row.Queued[2]
		row.Occ = int32(rs.transit.Len()) + row.Total
		e.rows[ri] = row
		e.netQueued += int(row.Total)
		e.tailDue[ri] = e.headDue(ri)
	}

	// Replay the transitions applyEvents fired before this step, minus
	// their dirty marks: the dirty set is state.
	e.evCursor = 0
	for i := range e.juncs {
		e.juncs[i].darkSince, e.juncs[i].darkPol = -1, signal.DarkPolicy{}
	}
	if e.events != nil {
		trs := e.events.Transitions()
		for ; e.evCursor < len(trs) && int(trs[e.evCursor].Step) < e.step; e.evCursor++ {
			tr := &trs[e.evCursor]
			switch tr.Kind {
			case event.TransCapacity:
				e.rows[tr.Road].Cap = tr.Cap
			case event.TransDarkOn:
				js := &e.juncs[e.juncIndex[tr.Junction]]
				js.darkSince, js.darkPol = tr.Step, tr.Policy
			case event.TransDarkOff:
				e.juncs[e.juncIndex[tr.Junction]].darkSince = -1
			}
		}
	}

	e.totals.Spawned = e.arena.Len()
	e.totals.Entered, e.totals.Exited, e.totals.Served = e.arena.Counts()

	if e.sensor != nil {
		for gl, l := range e.links {
			in, out := e.pair(int32(gl))
			tout := &e.rows[l.Out]
			in.Cap = e.rows[l.In].Cap
			out.Cap, out.Queued, out.Joins = tout.Cap, tout.Queued, tout.Joins
		}
	}

	// Listing stamps only deduplicate within the step that wrote them;
	// at inter-step points every stamp is stale, so -1 is equivalent.
	for i := range e.linkSeen {
		e.linkSeen[i] = -1
	}
	e.resetServeSkip()
	clear(e.ctrlDirty)
	clear(e.settled)
	clear(e.batch.Quiet)
}

// pair returns link gl's observed rows under a sensor.
func (e *Engine) pair(gl int32) (in, out *signal.Row) {
	i, o := signal.PairRows(gl)
	return &e.obsRows[i], &e.obsRows[o]
}

// headDue returns the arrival time at the head of road ri's transit
// list, +Inf when nothing is in transit.
func (e *Engine) headDue(ri int) float64 {
	if a, ok := e.store.Peek(&e.roads[ri].transit); ok {
		return a.EnqueuedAt
	}
	return math.Inf(1)
}

// ResetOptions selects collaborators ResetWith swaps before rewinding the
// engine. Nil fields keep the engine's current collaborator.
type ResetOptions struct {
	// Controllers replaces the factory the reset rebuilds controllers
	// from, switching the engine to another controller family or
	// parameterization without reconstructing roads, lanes or the
	// vehicle arena.
	Controllers signal.Factory
	// Demand and Router replace the engine's demand process and route
	// chooser. Both must be built for a network structurally identical
	// to the engine's (same dense road-ID layout); they are reseeded
	// through the Reseeder contract like in a plain Reset. See
	// DESIGN.md §3 for the full reuse contract.
	Demand ArrivalProcess
	Router RouteChooser
	// Routes replaces the interned route table alongside Router. Swap
	// the two together: a router's RouteIDs only index the table it was
	// built against. Structurally identical artifacts intern routes in
	// the same deterministic order, so the IDs agree either way, but the
	// pairing keeps the contract self-evident.
	Routes *vehicle.RouteTable
	// Sensor replaces the engine's observation sensor. Nil keeps the
	// current sensor; to return a sensed engine to perfect observation
	// set ClearSensor instead (sensor sweeps swap sensors per cell on
	// cached engines, so "remove" must be expressible).
	Sensor sensing.Sensor
	// ClearSensor uninstalls any sensor, restoring the zero-overhead
	// perfect-observation path. It wins over Sensor.
	ClearSensor bool
	// Control switches the controller dispatch mode (batched vs
	// per-junction, DESIGN.md §11) before the rewind rebuilds the
	// control plane. It applies only when SetControl is true, because
	// the zero ControlMode (signal.ControlAuto) is itself meaningful —
	// the same convention ClearSensor uses for "remove the sensor".
	Control    signal.ControlMode
	SetControl bool
	// Events replaces the disruption schedule the run replays
	// (DESIGN.md §12). Nil keeps the current schedule; to run the next
	// cell undisrupted set ClearEvents instead (robustness sweeps swap
	// schedules per severity on cached engines, so "disarm" must be
	// expressible).
	Events *event.Schedule
	// ClearEvents disarms any disruption schedule. It wins over Events.
	ClearEvents bool
	// RestoreFrom resumes the run from an Engine.Snapshot byte stream
	// after the rewind, instead of starting at step zero: the engine is
	// reset for the seed (reseeding the swapped-in collaborators exactly
	// as the captured run was seeded at its step zero) and then restored
	// to the checkpoint (DESIGN.md §14). The snapshot's structural
	// fingerprint must match the post-swap configuration.
	RestoreFrom []byte
}

// ResetWith is Reset plus collaborator swapping: it installs the non-nil
// collaborators of opts and then rewinds the engine for the given seed.
// It is the engine-pool primitive behind the sweep scheduler's engine
// cache — one engine can serve every (pattern × seed × controller) cell
// of a sweep, bit-for-bit identical to freshly built engines (DESIGN.md
// §3).
func (e *Engine) ResetWith(seed uint64, opts ResetOptions) error {
	if opts.Controllers != nil {
		e.cfg.Controllers = opts.Controllers
		e.ctrlEntry = factoryName(opts.Controllers)
	}
	if opts.Demand != nil {
		e.cfg.Demand = opts.Demand
	}
	if opts.Router != nil {
		e.cfg.Router = opts.Router
		// Mirror sim.New's fallback: a router that carries its own table
		// brings it along, so the chooser/table pair cannot come apart
		// when the caller swaps Router but forgets Routes.
		if opts.Routes == nil {
			if rt, ok := opts.Router.(RouteTabler); ok {
				opts.Routes = rt.RouteTable()
			}
		}
	}
	if opts.Routes != nil {
		e.cfg.Routes = opts.Routes
		e.routes = opts.Routes
	}
	switch {
	case opts.ClearSensor:
		e.setSensor(nil)
	case opts.Sensor != nil:
		e.setSensor(opts.Sensor)
	}
	if opts.SetControl {
		e.cfg.Control = opts.Control
	}
	switch {
	case opts.ClearEvents:
		e.cfg.Events = nil
		e.events = nil
	case opts.Events != nil:
		if err := e.checkEvents(opts.Events); err != nil {
			return err
		}
		e.cfg.Events = opts.Events
		e.events = opts.Events
	}
	if err := e.Reset(seed); err != nil {
		return err
	}
	if opts.RestoreFrom != nil {
		return e.Restore(opts.RestoreFrom)
	}
	return nil
}

// Reserve grows the vehicle arena and the lanes' link store to hold
// vehicles without further allocation. It never shrinks. The sweep's
// engine cache calls it before each cell, whose horizon may be longer
// than the one the engine was built for, so a run does not grow both
// by doubling as it spawns.
func (e *Engine) Reserve(vehicles int) {
	e.arena.Reserve(vehicles)
	e.store.Reserve(vehicles)
}

// AddHooks registers an event listener.
func (e *Engine) AddHooks(h Hooks) {
	e.hooks = append(e.hooks, h)
	e.hasPhaseHook = e.hasPhaseHook || h.Phase != nil
}

// Step returns the number of completed mini-slots.
func (e *Engine) Step() int { return e.step }

// Time returns the simulation clock in seconds.
func (e *Engine) Time() float64 { return float64(float64(e.step) * e.dt) }

// DeltaT returns the mini-slot length in seconds.
func (e *Engine) DeltaT() float64 { return e.dt }

// Network returns the simulated network.
func (e *Engine) Network() *network.Network { return e.net }

// Totals returns the conservation counters.
func (e *Engine) Totals() Totals { return e.totals }

// Vehicles materializes the vehicle arena as a fresh []Vehicle; index
// by vehicle.ID. It is the row-major observation bridge for statistics
// export and tests — each call allocates, so hot paths should read the
// arena directly (Arena) or use stats.SummarizeArena.
func (e *Engine) Vehicles() []vehicle.Vehicle { return e.arena.Vehicles(nil) }

// Arena returns the engine's structure-of-arrays vehicle store
// (DESIGN.md §16). It is engine-owned, read-only for callers.
func (e *Engine) Arena() *vehicle.Arena { return &e.arena }

// QueueLen returns q_i^{i'} style state: the number of vehicles queued on
// road rid for the given movement.
func (e *Engine) QueueLen(rid network.RoadID, turn network.Turn) int {
	if int(rid) >= len(e.roads) || rid < 0 {
		return 0
	}
	return int(e.rows[rid].Queued[turn])
}

// ApproachQueue returns the total queued on a road across movements.
func (e *Engine) ApproachQueue(rid network.RoadID) int {
	if int(rid) >= len(e.roads) || rid < 0 {
		return 0
	}
	return int(e.rows[rid].Total)
}

// Occupancy returns the vehicles on the road (in transit plus queued).
func (e *Engine) Occupancy(rid network.RoadID) int {
	if int(rid) >= len(e.roads) || rid < 0 {
		return 0
	}
	return int(e.rows[rid].Occ)
}

// SpawnQueueLen returns the vehicles waiting to enter a full entry road.
func (e *Engine) SpawnQueueLen(rid network.RoadID) int {
	if int(rid) >= len(e.roads) || rid < 0 {
		return 0
	}
	return e.roads[rid].spawn.Len()
}

// CurrentPhase returns the phase a junction applied in the last completed
// mini-slot (Amber before the first step or for unknown junctions). The
// lookup is a dense slice index — no map access on any observation path.
func (e *Engine) CurrentPhase(junction network.NodeID) signal.Phase {
	if junction < 0 || int(junction) >= len(e.juncIndex) {
		return signal.Amber
	}
	if i := e.juncIndex[junction]; i >= 0 {
		return e.juncs[i].current
	}
	return signal.Amber
}

// Run advances the simulation by the given number of mini-slots.
func (e *Engine) Run(steps int) {
	for i := 0; i < steps; i++ {
		e.stepOnce(nil)
	}
}

// RunFor advances the simulation by the given number of seconds,
// rounded to the nearest whole mini-slot: at Δt = 0.1 the quotient
// 0.3/0.1 is 2.9999999999999996, which truncation would run as 2 steps.
func (e *Engine) RunFor(seconds float64) {
	e.Run(int(math.Round(seconds / e.dt)))
}

// stepOnce advances one mini-slot through the six substeps of
// DESIGN.md §2, then the step tail. Run and RunTraced both step
// through it: a non-nil d receives each substep's wall time (RunTraced),
// from seven clock reads per step — one at the start and one closing
// each substep. Run passes nil, so the untimed step pays only the nil
// checks.
func (e *Engine) stepOnce(d *[NumSubsteps]time.Duration) {
	t := e.Time()
	var mark time.Time
	if d != nil {
		mark = time.Now()
	}
	e.applyEvents()
	if d != nil {
		now := time.Now()
		d[0], mark = now.Sub(mark), now
	}
	e.sense()
	if d != nil {
		now := time.Now()
		d[1], mark = now.Sub(mark), now
	}
	e.control(t)
	if d != nil {
		now := time.Now()
		d[2], mark = now.Sub(mark), now
	}
	e.serve(t)
	if d != nil {
		now := time.Now()
		d[3], mark = now.Sub(mark), now
	}
	e.completeTravel(t)
	if d != nil {
		now := time.Now()
		d[4], mark = now.Sub(mark), now
	}
	e.arrivals(t)
	if d != nil {
		d[5] = time.Since(mark)
	}
	e.endStep()
}

// endStep is the step tail every stepper runs after the substeps:
// advance the clock, flush telemetry.
func (e *Engine) endStep() {
	e.step++
	if e.telem != nil {
		e.flushTelemetry()
	}
}

// applyEvents fires every schedule transition due at the current
// mini-slot. It runs first in the step loop — before sense — so a
// capacity change or dark onset is observable (and actuated) in the
// same slot it is scheduled for. The cursor walk costs one comparison
// per step when nothing is due and never allocates.
func (e *Engine) applyEvents() {
	if e.events == nil {
		return
	}
	trs := e.events.Transitions()
	for e.evCursor < len(trs) {
		tr := &trs[e.evCursor]
		if int(tr.Step) > e.step {
			return
		}
		e.evCursor++
		switch tr.Kind {
		case event.TransCapacity:
			e.setEffCap(tr.Road, tr.Cap)
		case event.TransMark:
			e.markDirty(tr.Road)
		case event.TransDarkOn:
			js := &e.juncs[e.juncIndex[tr.Junction]]
			js.darkSince = int32(e.step)
			js.darkPol = tr.Policy
		case event.TransDarkOff:
			e.juncs[e.juncIndex[tr.Junction]].darkSince = -1
		}
	}
}

// setEffCap installs a road's effective capacity. The capacity columns
// of a sensed engine's observed pairs are engine-owned — sensors write
// only the sensed columns — so a capacity event is the one place they
// change after construction, and it writes them eagerly. The dirty
// mark routes the change through the incremental sense path, which
// wakes the road's junctions and, under a sensor, lists its links.
func (e *Engine) setEffCap(rid network.RoadID, cap int32) {
	row := &e.rows[rid]
	if row.Cap == cap {
		return
	}
	row.Cap = cap
	if e.sensor != nil {
		for _, gl := range e.roadLinks[rid] {
			l := &e.links[gl]
			in, out := e.pair(gl)
			if l.Out == int32(rid) {
				out.Cap = cap
			}
			if l.In == int32(rid) {
				in.Cap = cap
			}
		}
	}
	e.markDirty(rid)
}

// markDirty queues a road for the next sense substep. Roads enter the
// dirty set once per step; the set is pre-sized to the road count, so
// marking never allocates. The dirty set doubles as the serve plane's
// wake signal — but the fan-out to juncWoke happens in sense, not here:
// every serve-relevant state change (lane push/pop, occupancy,
// effective capacity) routes through this mark, and sense walks the
// completed dirty set once per step, so waking there costs one fan-out
// per dirty road per step instead of one per mark (serve alone marks
// two roads per served link). Waking at sense time is also immune to
// the mid-step consumption hazard: a junction's wake is consumed by its
// serve pass, and a later substep changing an already-dirty road
// (completeTravel pushing onto a lane the serve substep popped from,
// say) performs no new mark — a fan-out at mark time would have to run
// unconditionally to re-wake it, while the sense-time fan-out sees the
// finished dirty set after all of the step's changes.
func (e *Engine) markDirty(rid network.RoadID) {
	if !e.roadDirty[rid] {
		e.roadDirty[rid] = true
		e.dirtyRoads = append(e.dirtyRoads, int32(rid))
	}
}

// sense consumes the dirty set of the previous mini-slot. It wakes
// each dirty road's junctions (wake); controllers read the rows
// themselves, so a sensor-free engine does nothing more. Under a
// sensor it also lists every link reading a dirty road, once (linkSeen
// stamp), and makes one Sense call over the list at the end. As it
// walks a dirty road's links, it first copies the road's per-movement
// queues and joins into the observed pair of every link it is the
// outgoing road of: they are engine-owned, so the exact counts reach
// the observation whatever the sensor model, and no sensor's draw
// sequence shifts. The list order is the dirty order, road by road,
// each road's links in junction and link order; a sensor draws in it,
// so it is part of every sensed output. A sensor sees exactly the links
// that changed (event-driven detection).
func (e *Engine) sense() {
	if e.sensor == nil {
		for _, rd := range e.dirtyRoads {
			e.roadDirty[rd] = false
			e.wake(rd)
		}
		e.dirtyRoads = e.dirtyRoads[:0]
		return
	}
	// The stamp dedup guarantees one entry per link per step, so the
	// list, pre-sized to the link count, never reallocates.
	stamp := int32(e.step)
	list := e.listed
	for _, rd := range e.dirtyRoads {
		e.roadDirty[rd] = false
		e.wake(rd)
		row := &e.rows[rd]
		for _, gl := range e.roadLinks[rd] {
			if e.links[gl].Out == rd {
				_, out := e.pair(gl)
				out.Queued, out.Joins = row.Queued, row.Joins
			}
			if e.linkSeen[gl] == stamp {
				continue
			}
			e.linkSeen[gl] = stamp
			list = append(list, gl)
		}
	}
	e.dirtyRoads = e.dirtyRoads[:0]
	e.sensor.Sense(list, e.links, e.rows, e.obsRows, e.step)
	e.listed = list[:0]
}

// wake fans one dirty road out to the junctions that read it. The serve
// plane wakes the road's head junction only: it must take a full serve
// pass this step (DESIGN.md §16), while junctions the road feeds into
// keep their idle claims, which never read it. The control plane marks
// both the head junction (the road is an In road of its links) and the
// tail junction (an Out road): every link reading the road belongs to
// one of the two, so a junction left unmarked sees the same rows as
// last round (DESIGN.md §11).
func (e *Engine) wake(rd int32) {
	if j := e.roadWakeJunc[rd]; j >= 0 {
		e.juncWoke[j] = true
		e.ctrlDirty[j] = true
	}
	if j := e.roadTailJunc[rd]; j >= 0 {
		e.ctrlDirty[j] = true
	}
}

// control asks the control plane for c(k) based on the observed Q(k),
// the rows sense left: one DecideAll over the dense batch
// when a batched controller is installed (DESIGN.md §11), otherwise one
// Decide call per junction. Both paths apply the same phase-range
// coercion and fire hooks in junction order, so they are observably
// identical for conforming controllers.
func (e *Engine) control(t float64) {
	if e.batchCtrl != nil {
		e.controlBatched(t)
		return
	}
	for ji := range e.juncs {
		js := &e.juncs[ji]
		js.prev = js.current
		js.obs.Step = e.step
		js.obs.Time = t
		js.obs.Current = js.current
		e.applyDecision(js, js.ctrl.Decide(&js.obs))
	}
}

// applyDecision actuates one junction's decision — shared by both
// dispatch paths so the coercion rule and the hook contract cannot
// drift between them. Control phases are 1-indexed (signal.Phase:
// 1..NumPhases, with Amber = 0 the transition phase), so len(Phases)
// itself is the last valid phase. A controller returning a phase
// outside [Amber, NumPhases] gets amber; the engine never actuates a
// phase the junction lacks.
func (e *Engine) applyDecision(js *junctionState, phase signal.Phase) {
	if js.darkSince >= 0 {
		// Controller offline (dark-mode event): the decision is
		// discarded and the degraded policy actuates instead. The
		// override lives here, at the shared actuation point, so both
		// dispatch paths degrade identically and the controller — which
		// keeps deciding on observations whose Current is the applied
		// phase — advances its state the same way under either.
		phase = js.darkPol.Phase(e.step-int(js.darkSince), len(js.j.Phases))
	}
	if !js.hasPhase(phase) {
		phase = signal.Amber
	}
	js.current = phase
	if e.hasPhaseHook {
		for _, h := range e.hooks {
			if h.Phase != nil {
				h.Phase(js.j.Node, e.step, phase)
			}
		}
	}
}

// hasPhase reports whether the junction can actuate phase: Amber or
// one of its 1-indexed control phases. applyDecision coerces anything
// else to Amber, and Restore rejects it.
func (js *junctionState) hasPhase(phase signal.Phase) bool {
	return phase >= signal.Amber && int(phase) <= len(js.j.Phases)
}

// controlBatched is the batched control substep: fill the batch's
// per-junction inputs, make one DecideAll call, then apply the decisions
// with the same phase-range coercion and hook firing as the per-junction
// loop. Decided is pre-filled with Amber so a controller that writes
// nothing for a junction leaves it inactive; the control dirty marks
// are consumed by exactly one decision round.
//
// Quiet is settled && !ctrlDirty (DESIGN.md §11, "Quiet junctions"): a
// junction that last round decided its Current green while live, and
// none of whose roads changed since. A row changes only where its road
// is marked dirty, which marks the road's head and tail junctions in
// the next sense, and on Reset/Restore (which clear settled), so a
// quiet junction decides on the same rows and the same Current as last
// round.
func (e *Engine) controlBatched(t float64) {
	b := &e.batch
	b.Step = e.step
	b.Time = t
	for ji := range e.juncs {
		js := &e.juncs[ji]
		js.prev = js.current
		b.Current[ji] = js.current
		b.Decided[ji] = signal.Amber
		b.Quiet[ji] = e.settled[ji] && !e.ctrlDirty[ji]
		e.ctrlDirty[ji] = false
	}
	e.batchCtrl.DecideAll(b)
	for ji := range e.juncs {
		js := &e.juncs[ji]
		cur, dec := b.Current[ji], b.Decided[ji]
		e.settled[ji] = dec == cur && cur != signal.Amber && js.darkSince < 0
		e.applyDecision(js, dec)
	}
}

// exitVehicle records the vehicle leaving the network.
func (e *Engine) exitVehicle(id vehicle.ID, t float64) {
	e.arena.Exit(id, t)
	e.totals.Exited++
}

// completeTravel moves vehicles whose stop-line arrival falls inside this
// mini-slot from the head of the road's transit list into the turning
// lane for their next movement, where their arrival time is their
// enqueue time. The due-time index names the roads with an arrival
// due; they are visited in road order, so pops, dirty marks and every
// downstream draw keep the order of a walk over all roads.
func (e *Engine) completeTravel(t float64) {
	deadline := t + e.dt
	for ri, due := range e.tailDue {
		if due > deadline {
			continue
		}
		rs, row := &e.roads[ri], &e.rows[ri]
		for {
			a, ok := e.store.Peek(&rs.transit)
			if !ok || a.EnqueuedAt > deadline {
				break
			}
			e.store.Pop(&rs.transit)
			id := vehicle.ID(a.Vehicle)
			if rs.exits {
				// Vehicles never travel on exit roads in this model
				// (they leave at service), but a general topology can
				// route an entry road straight into a terminal.
				row.Occ--
				e.exitVehicle(id, a.EnqueuedAt)
				continue
			}
			turn := e.arena.PendingTurn(id)
			row.Transit[turn]--
			if e.cfg.MixedLanes {
				e.store.Push(&rs.mixed, int32(id), a.EnqueuedAt)
			} else {
				e.store.Push(&rs.lanes[turn], int32(id), a.EnqueuedAt)
			}
			row.Queued[turn]++
			row.Joins[turn]++
			row.Total++
			e.netQueued++
		}
		e.tailDue[ri] = e.headDue(ri)
		e.markDirty(network.RoadID(ri))
	}
}

// enterRoad puts a vehicle onto road ri: it counts toward the road's
// occupancy, its movement at the junction ahead is resolved now (so
// controllers can see it approaching), and it joins the tail of the
// road's transit list with its stop-line arrival after the free-flow
// travel time. The clock t never decreases, so neither does the
// arrival time down the list.
func (e *Engine) enterRoad(ri int32, id vehicle.ID, t float64) {
	rs, row := &e.roads[ri], &e.rows[ri]
	row.Occ++
	turn := network.Straight
	if !rs.exits {
		turn = e.resolveTurn(rs.feasible, id)
		row.Transit[turn]++
	}
	e.arena.SetPendingTurn(id, turn)
	at := t + rs.travel
	e.store.Push(&rs.transit, int32(id), at)
	if at < e.tailDue[ri] {
		e.tailDue[ri] = at
	}
}

// turnFallbacks is the fixed preference order a vehicle's infeasible
// planned movement falls back through, hoisted out of resolveTurn.
var turnFallbacks = [...]network.Turn{network.Straight, network.Right, network.Left}

// resolveTurn maps the vehicle's planned movement onto a feasible link of
// the junction ahead, whose movements the road's feasible mask lists,
// falling back to straight/right/left when the plan names a missing arm.
func (e *Engine) resolveTurn(feasible uint8, id vehicle.ID) network.Turn {
	want := e.routes.TurnAt(e.arena.Route(id), e.arena.Junctions(id))
	if feasible&(1<<want) != 0 {
		return want
	}
	for _, alt := range turnFallbacks {
		if alt != want && feasible&(1<<alt) != 0 {
			e.totals.RouteFallbacks++
			return alt
		}
	}
	// No feasible movement at all: validated networks cannot reach this,
	// since every junction link table is non-empty per approach used by
	// a road; keep the planned turn and let the queue sit.
	return want
}

// arrivals generates A(k,k+1) and admits spawn-queued vehicles onto entry
// roads with spare capacity, in road-ID order for determinism.
func (e *Engine) arrivals(t float64) {
	for _, rid := range e.entries {
		rs, row := &e.roads[rid], &e.rows[rid]
		n := e.cfg.Demand.Arrivals(rid, e.step, t, e.dt)
		for i := 0; i < n; i++ {
			id := e.arena.Spawn(rid, t, e.cfg.Router.Route(rid, t))
			e.store.Push(&rs.spawn, int32(id), t)
			e.totals.Spawned++
		}
		admitted := false
		for rs.spawn.Len() > 0 && !row.Full() {
			item, _ := e.store.Pop(&rs.spawn)
			id := vehicle.ID(item.Vehicle)
			e.arena.Admit(id, t)
			e.enterRoad(int32(rid), id, t)
			e.totals.Entered++
			admitted = true
		}
		if admitted {
			e.markDirty(rid)
		}
	}
}

// FinalizeWaits adds the waiting time accrued by vehicles still queued
// (in turning lanes or spawn queues) at the current clock to their
// QueueWait, so end-of-horizon averages count unfinished vehicles. Time
// in transit is not queue wait, so it skips the transit lists. It is
// idempotent per run end; call it once after the last Run.
func (e *Engine) FinalizeWaits() {
	if e.finalized {
		return
	}
	e.finalized = true
	t := e.Time()
	for ri := range e.roads {
		qs := e.roads[ri].queues()
		for _, lane := range qs[:transitList] {
			for it := range e.store.Items(lane) {
				e.arena.AddQueueWait(vehicle.ID(it.Vehicle), t-it.EnqueuedAt)
			}
		}
	}
}

// Kinds of queue a vehicle is listed in, as Engine.where records them.
const (
	queuedNone    uint8 = iota // listed nowhere: exited, or not seen yet
	queuedOnRoad               // a turning lane, the mixed lane or a transit list
	queuedWaiting              // its entry road's spawn queue
)

// queueKind returns the kind of queue vehicle id's lifecycle puts it
// in: a lane or transit list from admission to exit, its spawn queue
// before admission, none after exit.
func (e *Engine) queueKind(id vehicle.ID) uint8 {
	switch {
	case e.arena.Done(id):
		return queuedNone
	case e.arena.EnteredAt(id) != vehicle.Unset:
		return queuedOnRoad
	}
	return queuedWaiting
}

// clearWhere sizes the membership scratch to the arena and marks every
// vehicle as listed nowhere.
func (e *Engine) clearWhere() {
	n := e.arena.Len()
	if cap(e.where) < n {
		e.where = make([]uint8, n)
		return
	}
	e.where = e.where[:n]
	clear(e.where)
}

// listQueued records that queue k of road ri (in queues() order) lists
// vehicle v. It rejects a vehicle outside the arena; one listed before
// (served twice, and linked twice a cycle in its lane); one whose
// lifecycle puts it in another kind of queue; a waiting vehicle in a
// spawn queue other than its entry road's; a vehicle in a turning lane
// other than its movement's; and one in the mixed lane, or in transit
// toward a junction, bound for a movement no run queues on the road
// (canQueue). Restore links a vehicle only through it, and
// resetDerived counts a road's counters by these movements. checkLane
// holds the rules on whole queues.
func (e *Engine) listQueued(ri, k, v int) error {
	if v < 0 || v >= e.arena.Len() {
		return fmt.Errorf("sim: road %d %s holds vehicle %d outside arena of %d", ri, queueNames[k], v, e.arena.Len())
	}
	id := vehicle.ID(v)
	if e.where[v] != queuedNone {
		return fmt.Errorf("sim: road %d %s holds vehicle %d, which another queue lists too", ri, queueNames[k], v)
	}
	kind := queuedOnRoad
	if k == spawnQueue {
		kind = queuedWaiting
	}
	if e.queueKind(id) != kind {
		return fmt.Errorf("sim: road %d %s holds vehicle %d (entered %v, exited %v), which cannot wait there",
			ri, queueNames[k], v, e.arena.EnteredAt(id), e.arena.ExitedAt(id))
	}
	switch {
	case kind == queuedWaiting:
		if e.arena.EntryRoad(id) != network.RoadID(ri) {
			return fmt.Errorf("sim: road %d %s holds vehicle %d, which spawned onto road %d", ri, queueNames[k], v, e.arena.EntryRoad(id))
		}
	case k < numTurns:
		if turn := e.arena.PendingTurn(id); turn != network.Turn(k) {
			return fmt.Errorf("sim: road %d %s holds vehicle %d bound for movement %d", ri, queueNames[k], v, turn)
		}
	case k == numTurns || !e.roads[ri].exits:
		if turn := e.arena.PendingTurn(id); !e.roads[ri].canQueue(turn) {
			return fmt.Errorf("sim: road %d %s holds vehicle %d bound for movement %d, which the junction ahead lacks",
				ri, queueNames[k], v, turn)
		}
	}
	e.where[v] = kind
	return nil
}

// checkLane rejects n vehicles in queue k of road ri where no run
// queues one: at the stop line of a road with no junction ahead, in a
// lane of the lane mode the engine does not run (serve never takes from
// it), or in a turning lane whose movement no run queues on the road.
// The spawn queue and the transit list may hold vehicles on any road.
func (e *Engine) checkLane(ri, k, n int) error {
	if n == 0 || k > numTurns {
		return nil
	}
	rs := &e.roads[ri]
	if rs.exits || (k == numTurns) != e.cfg.MixedLanes || k < numTurns && !rs.canQueue(network.Turn(k)) {
		return fmt.Errorf("sim: road %d %s holds %d vehicles (junction ahead %v, mixed lanes %v), which serve never takes",
			ri, queueNames[k], n, !rs.exits, e.cfg.MixedLanes)
	}
	return nil
}

// checkQueues verifies queue membership: every vehicle of the arena is
// listed exactly where its lifecycle puts it (checkLane, listQueued) —
// in one lane or transit list while in the network, in its entry road's
// spawn queue while waiting, nowhere once exited. A transit list must be one
// enterRoad can build: arrival times that never decrease head to tail,
// none later than now plus the road's travel time, and on a road with a
// junction ahead as many vehicles bound for each movement as the road's
// per-movement transit count, which resetDerived rebuilds from them.
// Each walk stops after its lane's count, so a corrupt list fails here
// instead of hanging.
func (e *Engine) checkQueues() error {
	e.clearWhere()
	for ri := range e.roads {
		rs := &e.roads[ri]
		qs := rs.queues()
		for k, lane := range qs[:transitList] {
			if n := lane.Len(); n > 0 && k <= numTurns {
				if err := e.checkLane(ri, k, n); err != nil {
					return err
				}
			}
			for it := range e.store.Items(lane) {
				if err := e.listQueued(ri, k, it.Vehicle); err != nil {
					return err
				}
			}
		}
		latest, prev := e.Time()+rs.travel, math.Inf(-1)
		var bound [numTurns]int32
		for it := range e.store.Items(&rs.transit) {
			if err := e.listQueued(ri, transitList, it.Vehicle); err != nil {
				return err
			}
			if !rs.exits {
				bound[e.arena.PendingTurn(vehicle.ID(it.Vehicle))]++
			}
			if !(it.EnqueuedAt >= prev) {
				return fmt.Errorf("sim: road %d transit list holds vehicle %d arriving at %v behind one arriving at %v",
					ri, it.Vehicle, it.EnqueuedAt, prev)
			}
			if it.EnqueuedAt > latest {
				return fmt.Errorf("sim: road %d transit list holds vehicle %d arriving at %v, after now plus travel time %v",
					ri, it.Vehicle, it.EnqueuedAt, latest)
			}
			prev = it.EnqueuedAt
		}
		if transit := e.rows[ri].Transit; transit != bound {
			return fmt.Errorf("sim: road %d per-movement transit %v, its transit list is bound for %v", ri, transit, bound)
		}
	}
	for v, got := range e.where {
		if want := e.queueKind(vehicle.ID(v)); got != want {
			return fmt.Errorf("sim: vehicle %d (entered %v, exited %v) is listed in no queue",
				v, e.arena.EnteredAt(vehicle.ID(v)), e.arena.ExitedAt(vehicle.ID(v)))
		}
	}
	return nil
}

// CheckInvariants verifies conservation and capacity invariants; tests
// call it during and after runs, Restore before it accepts a snapshot.
func (e *Engine) CheckInvariants() error {
	// Queue membership runs first because the recount below reads the
	// arena rows of the mixed lane's vehicles.
	if err := e.checkQueues(); err != nil {
		return err
	}
	inNetwork := 0
	for ri := range e.roads {
		rs, row, road := &e.roads[ri], &e.rows[ri], &e.net.Roads[ri]
		perTurn, total := e.recountQueued(rs)
		if int(row.Total) != total {
			return fmt.Errorf("sim: road %d incremental queue total %d != lane recount %d", ri, row.Total, total)
		}
		for t, n := range perTurn {
			if int(row.Queued[t]) != n {
				return fmt.Errorf("sim: road %d movement %d queued count %d != lane recount %d", ri, t, row.Queued[t], n)
			}
		}
		transit := 0
		for t := range row.Transit {
			if row.Transit[t] < 0 || row.Joins[t] < 0 {
				return fmt.Errorf("sim: road %d movement %d transit %d / joins %d negative", ri, t, row.Transit[t], row.Joins[t])
			}
			transit += int(row.Transit[t])
		}
		// Vehicles heading for a terminal carry no movement, so an exit
		// road counts none in transit.
		want := rs.transit.Len()
		if rs.exits {
			want = 0
		}
		if transit != want {
			return fmt.Errorf("sim: road %d per-movement transit sums to %d, want %d", ri, transit, want)
		}
		onRoad := rs.transit.Len() + int(row.Total)
		if onRoad != int(row.Occ) {
			return fmt.Errorf("sim: road %d occupancy %d != transit+queued %d", ri, row.Occ, onRoad)
		}
		if road.Bounded() && int(row.Occ) > road.Capacity {
			return fmt.Errorf("sim: road %d occupancy %d exceeds capacity %d", ri, row.Occ, road.Capacity)
		}
		if due, head := e.tailDue[ri], e.headDue(ri); due != head {
			return fmt.Errorf("sim: road %d due-time index %v != transit list head %v", ri, due, head)
		}
		inNetwork += int(row.Occ)
	}
	waiting := 0
	for _, rid := range e.entries {
		waiting += e.roads[rid].spawn.Len()
	}
	queued := 0
	for ri := range e.rows {
		queued += int(e.rows[ri].Total)
	}
	if queued != e.netQueued {
		return fmt.Errorf("sim: network queue total %d != per-road sum %d", e.netQueued, queued)
	}
	if e.totals.Spawned != e.totals.Exited+inNetwork+waiting {
		return fmt.Errorf("sim: conservation violated: spawned %d != exited %d + in-network %d + waiting %d",
			e.totals.Spawned, e.totals.Exited, inNetwork, waiting)
	}
	if e.totals.Entered != e.totals.Exited+inNetwork {
		return fmt.Errorf("sim: entered %d != exited %d + in-network %d", e.totals.Entered, e.totals.Exited, inNetwork)
	}
	// Arena conservation: vehicles are appended exactly at spawn and
	// never removed, so the arena's row count is the spawn counter; the
	// lifecycle columns must agree with the totals (DESIGN.md §16).
	if e.arena.Len() != e.totals.Spawned {
		return fmt.Errorf("sim: arena holds %d vehicles, %d spawned", e.arena.Len(), e.totals.Spawned)
	}
	entered, exited, served := e.arena.Counts()
	if entered != e.totals.Entered || exited != e.totals.Exited {
		return fmt.Errorf("sim: arena lifecycle columns count %d entered / %d exited, totals say %d / %d",
			entered, exited, e.totals.Entered, e.totals.Exited)
	}
	// Each service event counts one junction on the vehicle served.
	if served != e.totals.Served {
		return fmt.Errorf("sim: arena junction counts sum to %d, totals say %d served", served, e.totals.Served)
	}
	// Telemetry consistency: the recorder's latest network sample — if
	// it covers the last completed step — must carry exactly the
	// incrementally maintained netQueued counter, whatever the
	// recorder's overwrite-oldest ring geometry (DESIGN.md §15/§16).
	if e.telem != nil && e.telem.rec.Len() > 0 {
		rec := e.telem.rec
		if last := rec.FirstStep() + rec.Len() - 1; last == e.step-1 {
			series := rec.NetQueued()
			if got := int(series[len(series)-1]); got != e.netQueued {
				return fmt.Errorf("sim: telemetry net-queued sample %d for step %d != counter %d", got, last, e.netQueued)
			}
		}
	}
	// Service credits (DESIGN.md §16): each lies in [startDebt, µΔt+1],
	// the range the serve recurrence keeps it in, which rejects NaN and
	// the infinities too; and a link outside the junction's current
	// phase, every link under amber, holds none. Serve relies on the
	// second: it zeroes the inactive credits only when the phase
	// changes.
	for ji := range e.juncs {
		js := &e.juncs[ji]
		var active []bool
		if js.current != signal.Amber {
			active = js.phaseActive[js.current-1]
		}
		for li, c := range js.credits {
			s := &e.serveSites[js.linkBase+int32(li)]
			if !(c >= s.startDebt && c <= s.creditCap) {
				return fmt.Errorf("sim: junction %s link %d credit %v outside [%v, %v]",
					js.info.Label, li, c, s.startDebt, s.creditCap)
			}
			if c != 0 && (active == nil || !active[li]) {
				return fmt.Errorf("sim: junction %s link %d holds credit %v outside its phase %d",
					js.info.Label, li, c, js.current)
			}
		}
	}
	// Under a sensor, each link's observed pair carries the columns the
	// engine owns: both capacities, which setEffCap writes eagerly, and
	// the outgoing road's per-movement queues and joins, which sense
	// copies when that road is dirty, so they may lag only behind a road
	// pending in the dirty set. Which rows changed since the last sense
	// is not checkable here, as the engine keeps no copy of them: a test
	// shadows the rows instead (TestDirtySetCoversChangedRows).
	if e.sensor != nil {
		for gl, l := range e.links {
			tin, tout := &e.rows[l.In], &e.rows[l.Out]
			in, out := e.pair(int32(gl))
			if in.Cap != tin.Cap || out.Cap != tout.Cap {
				return fmt.Errorf("sim: link %d observed capacities in=%d out=%d, effective %d / %d",
					gl, in.Cap, out.Cap, tin.Cap, tout.Cap)
			}
			if !e.roadDirty[l.Out] && (out.Queued != tout.Queued || out.Joins != tout.Joins) {
				return fmt.Errorf("sim: link %d observed per-movement queues %v / joins %v, road %d (clean) has %v / %v",
					gl, out.Queued, out.Joins, l.Out, tout.Queued, tout.Joins)
			}
		}
	}
	return nil
}
