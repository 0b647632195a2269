// Package signal defines the contract between the simulation engine and
// traffic-signal controllers: the per-junction observation delivered every
// mini-slot, the phase identifiers, and the controller/factory interfaces.
//
// Controllers are deliberately decoupled from the network package: they
// see only the queue lengths, occupancies, capacities and service rates of
// the junction they manage — exactly the local information the paper's
// Algorithm 1 requires ("all the inputs are local to the intersection").
package signal

import "fmt"

// NumTurns is the number of turning movements a road fans out into
// (left, straight, right). It sizes the per-movement downstream arrays
// of LinkObs and matches the network's per-road turn layout.
const NumTurns = 3

// Phase identifies a control phase at a junction. Control phases are
// numbered 1..NumPhases; 0 is the amber transition phase c0 during which
// no link is activated.
type Phase int

// Amber is the transition phase c0.
const Amber Phase = 0

// String renders the phase like the paper ("c0".."c4").
func (p Phase) String() string { return fmt.Sprintf("c%d", int(p)) }

// LinkObs is the observable state of one feasible link L_i^{i'} at a
// decision instant k.
//
// The counts are int32 and the struct is 64 bytes, one cache line: the
// engine rewrites the observations of the changed links every step and
// the controllers re-read them in their weight sweep, so the width is
// the memory traffic of both (DESIGN.md §6). A road holds at most its
// capacity and a cumulative join count at most the vehicles spawned,
// so the engine's counts fit; a sensor saturates its estimates to
// [0, math.MaxInt32]. Readers widen before they sum counts that could
// pass int32, and float64 of an int32 is exact.
type LinkObs struct {
	// Queue is q_i^{i'}(k): the number of vehicles in this link's
	// dedicated turning lane (stopped at the stop line).
	Queue int32
	// InTransit counts vehicles already on the incoming road and bound
	// for this link's lane but still rolling toward the stop line. The
	// paper's queuing-network model treats the whole road as the queue,
	// so gain variants may add this to Queue.
	InTransit int32
	// ApproachQueue is q_i(k): the total queued on the incoming road
	// across all its turning lanes (eq. 1). ORIG-BP's gain (eq. 5) and
	// ablation A4 use it instead of Queue.
	ApproachQueue int32
	// OutQueue is q_{i'}(k): the total queue length on the outgoing
	// road (vehicles stopped at its downstream stop line), the pressure
	// term b_{i'} of eq. (5)/(6).
	OutQueue int32
	// OutOccupancy counts all vehicles currently on the outgoing road
	// (travelling + queued); capacity blocking applies to it.
	OutOccupancy int32
	// OutCapacity is W_{i'}; 0 means unbounded (a boundary sink).
	OutCapacity int32
	// InCapacity is W_i of the incoming road, used by capacity-
	// normalized pressure variants; 0 means unbounded.
	InCapacity int32
	// Mu is the link's full service rate µ_i^{i'} in veh/s.
	Mu float64
	// OutTurnQueue resolves OutQueue per turning movement of the
	// OUTGOING road: OutTurnQueue[t] counts the vehicles queued in the
	// outgoing road's movement-t lane. Downstream-aware controllers
	// (MaxPressure, unknown-routing-rate BP) weight these by routing
	// rates instead of using the aggregate OutQueue. Engine-owned like
	// the capacity fields: sensors never write it (the engine copies
	// it from the truth to the sensed observation of every changed link
	// before its one sensing.Sensor.Sense call per step), so adding it
	// perturbs no sensor's draw sequence. Zero for boundary sinks.
	OutTurnQueue [NumTurns]int32
	// OutTurnJoins is the cumulative count of vehicles that have joined
	// each turning movement's queue on the outgoing road since engine
	// reset — the observable "departures per movement" signal an online
	// turn-ratio estimator consumes in place of the frozen
	// vehicle.RouteTable (PAPERS.md 1401.3357). Engine-owned like
	// OutTurnQueue. Zero for boundary sinks.
	OutTurnJoins [NumTurns]int32
}

// OutFull reports whether the outgoing road has reached its capacity, the
// first special scenario of eq. (8).
func (l *LinkObs) OutFull() bool { return l.OutCapacity > 0 && l.OutOccupancy >= l.OutCapacity }

// Obs is the junction observation passed to Controller.Decide at every
// mini-slot.
type Obs struct {
	// Step is the discrete time index k; Time is t_k in seconds.
	Step int
	Time float64
	// Links is indexed by the junction's link index.
	Links []LinkObs
	// Current is c(k-1), the phase applied during the previous
	// mini-slot (Amber at the first step).
	Current Phase
}

// JunctionInfo is the static description of a junction a controller is
// constructed for.
type JunctionInfo struct {
	// Label identifies the junction in logs (typically the node name).
	Label string
	// Phases maps phase p (1-based: Phases[p-1]) to the link indexes it
	// activates.
	Phases [][]int
	// NumLinks is the length of Obs.Links at this junction.
	NumLinks int
	// WStar is W* = max road capacity in the network (eq. 7).
	WStar int
	// DeltaT is the mini-slot length in seconds.
	DeltaT float64
}

// NumPhases returns the number of control phases (excluding amber).
func (ji *JunctionInfo) NumPhases() int { return len(ji.Phases) }

// Validate checks that the phase table is well formed.
func (ji *JunctionInfo) Validate() error {
	if ji.NumLinks <= 0 {
		return fmt.Errorf("signal: junction %q has no links", ji.Label)
	}
	if len(ji.Phases) == 0 {
		return fmt.Errorf("signal: junction %q has no phases", ji.Label)
	}
	if ji.DeltaT <= 0 {
		return fmt.Errorf("signal: junction %q has non-positive mini-slot", ji.Label)
	}
	for pi, p := range ji.Phases {
		if len(p) == 0 {
			return fmt.Errorf("signal: junction %q phase %d empty", ji.Label, pi+1)
		}
		for _, li := range p {
			if li < 0 || li >= ji.NumLinks {
				return fmt.Errorf("signal: junction %q phase %d references link %d of %d", ji.Label, pi+1, li, ji.NumLinks)
			}
		}
	}
	return nil
}

// Controller decides the control phase of one junction. Implementations
// are stateful (they track their own phase timers) and are invoked once
// per mini-slot with the freshly observed queue state.
type Controller interface {
	// Name identifies the control algorithm (e.g. "UTIL-BP").
	Name() string
	// Decide returns c(k): the phase to apply during [t_k, t_k+Δt).
	// Returning Amber keeps every link inactive.
	Decide(obs *Obs) Phase
}

// Factory builds one Controller per junction.
type Factory interface {
	// Name identifies the control algorithm family.
	Name() string
	// New returns a fresh controller for the given junction.
	New(info JunctionInfo) (Controller, error)
}

// FactoryFunc adapts a function to the Factory interface.
type FactoryFunc struct {
	// Label is returned by Name.
	Label string
	// Build constructs the controller.
	Build func(info JunctionInfo) (Controller, error)
}

// Name implements Factory.
func (f FactoryFunc) Name() string { return f.Label }

// New implements Factory.
func (f FactoryFunc) New(info JunctionInfo) (Controller, error) { return f.Build(info) }
