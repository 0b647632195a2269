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
// (left, straight, right). It sizes the per-movement columns of Row and
// matches the network's per-road turn layout.
const NumTurns = 3

// Phase identifies a control phase at a junction. Control phases are
// numbered 1..NumPhases; 0 is the amber transition phase c0 during which
// no link is activated.
type Phase int

// Amber is the transition phase c0.
const Amber Phase = 0

// String renders the phase like the paper ("c0".."c4").
func (p Phase) String() string { return fmt.Sprintf("c%d", int(p)) }

// Row is the observable state of one road at a decision instant k: the
// per-movement columns of the paper's Q(k) (q_i^{i'} is a lane of road
// i) and the road totals capacity blocking reads. A controller reads a
// link's state from two rows, its incoming road's and its outgoing
// road's, through the link table (Link); the engine keeps its own road
// counters in this layout, so a sensor-free engine hands controllers
// its truth rows with no copy (DESIGN.md §6).
//
// A link reads only some columns of each row. Of the incoming road's
// row: Queued[Turn] (q_i^{i'}), Transit[Turn], Total (q_i) and Cap (W_i).
// Of the outgoing road's row: Total (q_{i'}), Occ, Cap (W_{i'}), and
// the per-movement Queued and Joins. A sensed engine gives every link
// its own two observed rows (PairRows) and fills only these columns.
//
// The counts are int32 and the row is 64 bytes, one cache line. A road
// holds at most its capacity and a cumulative join count at most the
// vehicles spawned, so the engine's counts fit; a sensor saturates its
// estimates to [0, math.MaxInt32]. Readers widen before they sum counts
// that could pass int32, and float64 of an int32 is exact.
type Row struct {
	// Queued[t] is q_i^{i'} for movement t: the vehicles stopped in the
	// road's movement-t turning lane (under mixed lanes, the vehicles
	// of the mixed lane bound for t). Of an outgoing road it resolves
	// Total per movement, the downstream term of MaxPressure and
	// BP-EST.
	Queued [NumTurns]int32
	// Transit[t] counts the vehicles on the road bound for movement t
	// but still rolling toward the stop line. The paper's
	// queuing-network model treats the whole road as the queue, so gain
	// variants may add it to Queued[t].
	Transit [NumTurns]int32
	// Joins[t] is the cumulative count of vehicles that have joined the
	// movement-t queue since the engine's reset: the "departures per
	// movement" signal an online turn-ratio estimator consumes in place
	// of the frozen route table (PAPERS.md 1401.3357).
	Joins [NumTurns]int32
	// Total is q_i(k), the sum of Queued: every vehicle at the stop
	// line. It is the incoming pressure of ORIG-BP (eq. 5) and ablation
	// A4, and the outgoing pressure b_{i'} of eq. (5)/(6).
	Total int32
	// Occ counts every vehicle on the road, travelling and queued;
	// capacity blocking applies to it.
	Occ int32
	// Cap is the road's effective capacity W_i, reduced inside incident
	// windows; 0 means unbounded (a boundary sink).
	Cap int32
	_   [4]int32
}

// Full reports whether the road has reached its capacity, the first
// special scenario of eq. (8) when the road is a link's outgoing one.
func (r *Row) Full() bool { return r.Cap > 0 && r.Occ >= r.Cap }

// Link is one feasible link L_i^{i'} of the static link table: the rows
// of its incoming and outgoing roads, its movement and its service
// rate. The engine builds the table once. A sensor-free engine points
// In and Out at its truth rows, road IDs; a sensed engine points link
// gl at its observed pair (PairRows).
type Link struct {
	// Mu is the link's full service rate µ_i^{i'} in veh/s.
	Mu float64
	// In and Out index the row slab the table is read with.
	In, Out int32
	// Turn is the movement t in [0, NumTurns) the link serves: it
	// selects the incoming road's Queued and Transit column.
	Turn int32
}

// PairRows returns the rows of link gl in the pair layout of a sensed
// engine's observed slab: row 2gl holds what the link's sensor reported
// of its incoming road, row 2gl+1 of its outgoing road. Each link keeps
// its own readings, so two links reading one road may see it
// differently (DESIGN.md §10).
func PairRows(gl int32) (in, out int32) { return 2 * gl, 2*gl + 1 }

// Obs is the junction observation passed to Controller.Decide at every
// mini-slot.
type Obs struct {
	// Step is the discrete time index k; Time is t_k in seconds.
	Step int
	Time float64
	// Links is the junction's window of the link table, indexed by the
	// junction's link index; Rows is the row slab its In and Out index.
	Links []Link
	Rows  []Row
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

// Parameterized is implemented by a Factory whose controllers decide by
// parameters beyond the family its Name labels. Params writes every
// option that changes a decision, with its defaults filled in and each
// float in the shortest form that parses back to it (fmt's %v), so
// factories whose controllers can decide differently return different
// strings. The engine's snapshot fingerprint compares it, while Name
// stays the family label that tables print.
type Parameterized interface {
	Params() string
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
