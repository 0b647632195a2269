package event

import (
	"fmt"
	"math"
	"sort"

	"utilbp/internal/network"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
)

// TransKind enumerates the compiled transition kinds the engine's
// events substep dispatches on.
type TransKind int32

const (
	// TransCapacity sets a road's effective capacity to Transition.Cap —
	// both the onset (reduced) and the clearance (restored to nominal)
	// of an incident compile to this one kind.
	TransCapacity TransKind = iota
	// TransMark only marks the road dirty, forcing the sense substep to
	// list its links for the sensor although no count moved; outage window
	// boundaries compile to it so blanking and resynchronization are
	// not deferred until traffic happens to move.
	TransMark
	// TransDarkOn puts the junction's controller offline under
	// Transition.Policy.
	TransDarkOn
	// TransDarkOff hands control back to the junction's controller; its
	// step is the policy's precomputed release step, not the scheduled
	// window end.
	TransDarkOff
)

// Transition is one compiled schedule step: at mini-slot Step the
// engine applies the change described by Kind. Transitions are sorted
// by Step; at equal steps, a target's revert always precedes its next
// apply (Compile emits per-target windows in order and sorts stably).
type Transition struct {
	// Step is the mini-slot the transition fires at, applied before the
	// sense substep of that slot.
	Step int32
	// Kind selects the dispatch.
	Kind TransKind
	// Road targets capacity and mark transitions.
	Road network.RoadID
	// Cap is the effective capacity TransCapacity installs.
	Cap int32
	// Junction targets the dark transitions.
	Junction network.NodeID
	// Policy is the degraded-dispatch rule TransDarkOn arms.
	Policy signal.DarkPolicy
}

// surge is one compiled demand window: multiply the rate by scale for
// t in [t0, end) seconds.
type surge struct {
	t0, end, scale float64
}

// Schedule is a disruption schedule compiled against a concrete
// network: name-resolved, mini-slot-exact and immutable. It lives on
// scenario.Artifact (shared by reference across pooled runs) and is
// armed per-run via sim.Config.Events; the engine walks Transitions
// with a cursor it rewinds on Reset, so replays are bit-for-bit.
type Schedule struct {
	specs       []Spec
	numRoads    int
	numLinks    int
	deltaT      float64
	transitions []Transition
	surges      []surge
	outages     []sensing.OutageWindow
}

// window is a compile-time half-open step interval used for per-target
// overlap rejection.
type window struct {
	start, end int
	spec       int // index into specs, for error messages
}

// Compile resolves the specs against the network and returns the
// mini-slot-exact schedule for engines stepping at deltaT seconds per
// slot. It returns (nil, nil) for an empty spec list — a nil *Schedule
// is the universal "no disruptions" value. Compilation rejects unknown
// road/junction names, incidents on unbounded roads, and overlapping
// windows on one target (overlap across targets, and any surge
// overlap, is fine: surge multipliers compose).
func Compile(net *network.Network, deltaT float64, specs []Spec) (*Schedule, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if !(deltaT > 0) {
		return nil, fmt.Errorf("event: mini-slot duration %v, want > 0", deltaT)
	}
	s := &Schedule{
		specs:    append([]Spec(nil), specs...),
		numRoads: len(net.Roads),
		deltaT:   deltaT,
	}
	for i := range net.Junctions {
		s.numLinks += len(net.Junctions[i].Links)
	}
	steps := func(sec float64) int { return int(math.Round(sec / deltaT)) }
	durSteps := func(sec float64) int { return max(1, steps(sec)) }

	capWins := map[network.RoadID][]window{}
	outWins := map[network.RoadID][]window{}
	darkWins := map[network.NodeID][]window{}
	for i, spec := range s.specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		t0 := steps(spec.T0)
		end := t0 + durSteps(spec.Dur)
		switch spec.Kind {
		case KindIncident:
			road, err := roadByName(net, spec.Target)
			if err != nil {
				return nil, err
			}
			if !road.Bounded() {
				return nil, fmt.Errorf("event: incident on unbounded road %q (no capacity to drop)", spec.Target)
			}
			// Clamp the reduced capacity to at least one vehicle: effective
			// capacity zero would collide with the "unbounded" encoding.
			reduced := int32(max(1, int(float64(spec.CapFrac*float64(road.Capacity))+0.5)))
			capWins[road.ID] = append(capWins[road.ID], window{t0, end, i})
			s.transitions = append(s.transitions,
				Transition{Step: int32(t0), Kind: TransCapacity, Road: road.ID, Cap: reduced},
				Transition{Step: int32(end), Kind: TransCapacity, Road: road.ID, Cap: int32(road.Capacity)},
			)
		case KindDark:
			junc, err := junctionByName(net, spec.Target)
			if err != nil {
				return nil, err
			}
			pol := signal.DarkPolicy{
				AllRedSteps: steps(defaultSec(spec.AllRedSec, DefaultDarkAllRedSec)),
				GreenSteps:  durSteps(defaultSec(spec.GreenSec, DefaultDarkGreenSec)),
				AmberSteps:  durSteps(defaultSec(spec.AmberSec, DefaultDarkAmberSec)),
			}
			if err := pol.Validate(); err != nil {
				return nil, err
			}
			// The policy stays in force past the scheduled end until its
			// in-flight segment completes, so overlap is checked against
			// the actual release step.
			release := pol.ReleaseStep(t0, end)
			darkWins[junc.Node] = append(darkWins[junc.Node], window{t0, release, i})
			s.transitions = append(s.transitions,
				Transition{Step: int32(t0), Kind: TransDarkOn, Junction: junc.Node, Policy: pol},
				Transition{Step: int32(release), Kind: TransDarkOff, Junction: junc.Node},
			)
		case KindOutage:
			road, err := roadByName(net, spec.Target)
			if err != nil {
				return nil, err
			}
			links := make([]bool, s.numLinks)
			base, covered := 0, false
			for ji := range net.Junctions {
				j := &net.Junctions[ji]
				for li := range j.Links {
					if j.Links[li].In == road.ID {
						links[base+li] = true
						covered = true
					}
				}
				base += len(j.Links)
			}
			if !covered {
				return nil, fmt.Errorf("event: outage road %q feeds no junction link (no detector to fail)", spec.Target)
			}
			outWins[road.ID] = append(outWins[road.ID], window{t0, end, i})
			s.outages = append(s.outages, sensing.OutageWindow{
				StartStep: t0, EndStep: end, Mode: spec.Mode, Links: links,
			})
			// Force a sense refresh at both boundaries so the blackout and
			// the recovery land on schedule even if the road is quiescent.
			s.transitions = append(s.transitions,
				Transition{Step: int32(t0), Kind: TransMark, Road: road.ID},
				Transition{Step: int32(end), Kind: TransMark, Road: road.ID},
			)
		case KindSurge:
			s.surges = append(s.surges, surge{t0: spec.T0, end: spec.T0 + spec.Dur, scale: spec.Scale})
		}
	}
	for _, check := range []struct {
		label string
		wins  map[network.RoadID][]window
	}{{"incident windows", capWins}, {"outage windows", outWins}} {
		for rid, wins := range check.wins {
			if err := rejectOverlap(check.label, net.Roads[rid].Name, s.specs, wins); err != nil {
				return nil, err
			}
		}
	}
	for nid, wins := range darkWins {
		if err := rejectOverlap("dark windows", net.Node(nid).Name, s.specs, wins); err != nil {
			return nil, err
		}
	}
	// Stable: per-target emission order (apply, revert, next apply, ...)
	// breaks ties at equal steps, so back-to-back windows revert before
	// they re-apply.
	sort.SliceStable(s.transitions, func(i, j int) bool {
		return s.transitions[i].Step < s.transitions[j].Step
	})
	return s, nil
}

// defaultSec substitutes def when the spec left the field zero.
func defaultSec(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// rejectOverlap errors when two windows on one target intersect.
// Touching windows (one ends exactly when the next starts) are fine.
func rejectOverlap(label, target string, specs []Spec, wins []window) error {
	sort.Slice(wins, func(i, j int) bool { return wins[i].start < wins[j].start })
	for i := 1; i < len(wins); i++ {
		if wins[i].start < wins[i-1].end {
			return fmt.Errorf("event: overlapping %s on %q: %q and %q",
				label, target, specs[wins[i-1].spec], specs[wins[i].spec])
		}
	}
	return nil
}

// roadByName resolves a road by its network name.
func roadByName(net *network.Network, name string) (*network.Road, error) {
	for i := range net.Roads {
		if net.Roads[i].Name == name {
			return &net.Roads[i], nil
		}
	}
	return nil, fmt.Errorf("event: no road named %q in the network", name)
}

// junctionByName resolves a junction by its node name.
func junctionByName(net *network.Network, name string) (*network.Junction, error) {
	for i := range net.Nodes {
		if net.Nodes[i].Name == name && net.Nodes[i].Kind == network.JunctionNode {
			if j := net.Junction(net.Nodes[i].ID); j != nil {
				return j, nil
			}
		}
	}
	return nil, fmt.Errorf("event: no junction named %q in the network", name)
}

// Specs returns a copy of the normalized specs the schedule was
// compiled from.
func (s *Schedule) Specs() []Spec {
	if s == nil {
		return nil
	}
	return append([]Spec(nil), s.specs...)
}

// Transitions returns the compiled transitions sorted by step. The
// slice is shared, not copied — callers (the engine's events substep)
// must treat it as read-only.
func (s *Schedule) Transitions() []Transition {
	if s == nil {
		return nil
	}
	return s.transitions
}

// NumRoads returns the road count of the network the schedule was
// compiled against; the engine checks it at arming time.
func (s *Schedule) NumRoads() int {
	if s == nil {
		return 0
	}
	return s.numRoads
}

// NumLinks returns the dense global link count of the network the
// schedule was compiled against.
func (s *Schedule) NumLinks() int {
	if s == nil {
		return 0
	}
	return s.numLinks
}

// DeltaT returns the mini-slot duration the schedule's steps assume.
func (s *Schedule) DeltaT() float64 {
	if s == nil {
		return 0
	}
	return s.deltaT
}

// Summary renders the compact per-kind census of the schedule's specs.
func (s *Schedule) Summary() string {
	if s == nil {
		return ""
	}
	return Summarize(s.specs)
}

// WrapRate decorates a demand-rate function with the schedule's surge
// windows: inside a window the base rate is multiplied by the surge
// scale, and overlapping surges compose multiplicatively. A nil or
// surge-free schedule returns base unchanged. The signature is the
// unnamed form of sim.RateFunc — the event package sits below sim and
// cannot name it, but defined function types convert freely.
func (s *Schedule) WrapRate(base func(network.RoadID, float64) float64) func(network.RoadID, float64) float64 {
	if s == nil || len(s.surges) == 0 || base == nil {
		return base
	}
	surges := s.surges
	return func(road network.RoadID, t float64) float64 {
		r := base(road, t)
		for i := range surges {
			if t >= surges[i].t0 && t < surges[i].end {
				r *= surges[i].scale
			}
		}
		return r
	}
}

// WrapSensor decorates a sensor with the schedule's outage windows. A
// nil or outage-free schedule returns inner unchanged; with outages, a
// nil inner is promoted to sensing.Perfect (the engine's sensor-free
// fast path has nothing to intercept, so an outage forces the explicit
// sensing path).
func (s *Schedule) WrapSensor(inner sensing.Sensor) sensing.Sensor {
	if s == nil || len(s.outages) == 0 {
		return inner
	}
	if inner == nil {
		inner = sensing.Perfect{}
	}
	return sensing.Outage(inner, s.outages)
}
