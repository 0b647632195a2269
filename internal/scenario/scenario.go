// Package scenario encodes the paper's Section V evaluation setup: the
// 3×3 grid with W_i = 120, the Table I turning probabilities, the
// Table II traffic patterns (plus the 4-hour mixed pattern and the
// rush-hour ramp extension), the 4-second amber, alpha = -1 and
// beta = -2, with the saturation flow calibrated to 0.5 veh/s per
// movement (see DESIGN.md §8).
//
// Beyond the paper's grid, the package keeps a registry of named
// workloads (Workloads, RegisterWorkload) — asymmetric grids, an
// arterial corridor, the rush-hour ramp — documented in DESIGN.md §4
// and runnable via `trafficsim -workload`.
package scenario

import (
	"fmt"

	"utilbp/internal/bp"
	"utilbp/internal/bpest"
	"utilbp/internal/core"
	"utilbp/internal/event"
	"utilbp/internal/fixedtime"
	"utilbp/internal/gapout"
	"utilbp/internal/maxpressure"
	"utilbp/internal/network"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// Pattern identifies a Table II traffic pattern.
type Pattern int

// The four Table II patterns, the 4-hour mixed pattern combining them,
// and the rush-hour ramp extension (trapezoidal demand, beyond the
// paper's Section V set).
const (
	PatternI Pattern = iota + 1
	PatternII
	PatternIII
	PatternIV
	PatternMixed
	PatternRush
)

// Patterns lists the individual patterns in order.
var Patterns = []Pattern{PatternI, PatternII, PatternIII, PatternIV}

// AllPatterns lists the individual patterns plus the mixed one, the rows
// of Table III.
var AllPatterns = []Pattern{PatternI, PatternII, PatternIII, PatternIV, PatternMixed}

// String names the pattern like the paper.
func (p Pattern) String() string {
	switch p {
	case PatternI:
		return "I"
	case PatternII:
		return "II"
	case PatternIII:
		return "III"
	case PatternIV:
		return "IV"
	case PatternMixed:
		return "Mixed"
	case PatternRush:
		return "Rush"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Description gives the paper's label for the pattern.
func (p Pattern) Description() string {
	switch p {
	case PatternI:
		return "adjacent heavy"
	case PatternII:
		return "uniform"
	case PatternIII:
		return "opposite heavy"
	case PatternIV:
		return "single heavy"
	case PatternMixed:
		return "mixed (I+II+III+IV)"
	case PatternRush:
		return "rush-hour ramp (trapezoidal uniform demand)"
	}
	return "unknown"
}

// interArrival is Table II: mean inter-arrival time in seconds of
// vehicles entering the network, per boundary side.
var interArrival = map[Pattern]map[network.Dir]float64{
	PatternI:   {network.North: 3, network.East: 5, network.South: 7, network.West: 9},
	PatternII:  {network.North: 6, network.East: 6, network.South: 6, network.West: 6},
	PatternIII: {network.North: 3, network.East: 7, network.South: 5, network.West: 9},
	PatternIV:  {network.North: 3, network.East: 9, network.South: 9, network.West: 9},
}

// InterArrival returns the Table II mean inter-arrival times for a
// non-mixed pattern.
func (p Pattern) InterArrival() (map[network.Dir]float64, error) {
	t, ok := interArrival[p]
	if !ok {
		return nil, fmt.Errorf("scenario: pattern %v has no single inter-arrival table", p)
	}
	return t, nil
}

// Duration returns the default simulation horizon for the pattern: 1 h
// for patterns I-IV and the rush-hour ramp, 4 h for the mixed pattern.
func (p Pattern) Duration() float64 {
	if p == PatternMixed {
		return 4 * 3600
	}
	return 3600
}

// Rush-hour ramp shape: the uniform Table II demand is scaled by a
// trapezoid — quiet shoulders, a linear build-up to a peak above the
// paper's operating point, a hold, and a symmetric cool-down.
const (
	rushLowScale  = 0.35
	rushPeakScale = 1.25
	rushRampSec   = 1200.0 // build-up / cool-down duration
	rushPeakSec   = 1200.0 // peak hold duration
)

// rushScale is the trapezoidal demand multiplier of PatternRush at time t.
func rushScale(t float64) float64 {
	switch {
	case t < 0:
		return rushLowScale
	case t < rushRampSec:
		return rushLowScale + (rushPeakScale-rushLowScale)*t/rushRampSec
	case t < rushRampSec+rushPeakSec:
		return rushPeakScale
	case t < 2*rushRampSec+rushPeakSec:
		return rushPeakScale - (rushPeakScale-rushLowScale)*(t-rushRampSec-rushPeakSec)/rushRampSec
	default:
		return rushLowScale
	}
}

// TurnProbs are Table I turning probabilities; the straight probability
// is the remainder.
type TurnProbs struct {
	Right, Left float64
}

// Straight returns the residual straight probability.
func (t TurnProbs) Straight() float64 { return 1 - t.Right - t.Left }

// TableI is the paper's Table I: turning probabilities by entry side.
var TableI = map[network.Dir]TurnProbs{
	network.North: {Right: 0.4, Left: 0.2},
	network.East:  {Right: 0.3, Left: 0.3},
	network.South: {Right: 0.4, Left: 0.3},
	network.West:  {Right: 0.3, Left: 0.4},
}

// Setup bundles the evaluation constants.
type Setup struct {
	// Grid is the network geometry; zero value uses the paper's 3×3
	// grid with W = 120.
	Grid network.GridSpec
	// AmberSec is the transition-phase duration (paper: 4 s).
	AmberSec int
	// Alpha and Beta are eq. (8)'s special-case gains (paper: -1, -2).
	Alpha, Beta float64
	// Seed drives all randomness (arrivals and route choices).
	Seed uint64
	// TurnProbs overrides Table I when non-nil.
	TurnProbs map[network.Dir]TurnProbs
	// CountApproaching widens the pressure signal to include vehicles
	// still rolling toward the stop line (an induction-loop-far-upstream
	// detector model). Off by default: greens would hold for vehicles
	// that cannot yet be served, hurting utilization (ablation A6).
	CountApproaching bool
	// DemandScale multiplies every arrival rate; 0 means 1 (the paper's
	// Table II demand). The stability prober sweeps it to estimate a
	// controller's capacity margin.
	DemandScale float64
	// Sensor selects the observation model controllers see — the cyber
	// half of the paper's CPS split (internal/sensing, DESIGN.md §10).
	// The zero value is perfect observation: engines run sensor-free
	// and reproduce the historical behavior bit-for-bit. Non-perfect
	// specs (loop detection, connected-vehicle sampling) are
	// instantiated per run with a dedicated "sensing" RNG stream
	// derived from Seed, independent of the demand and route streams.
	Sensor sensing.Spec
	// Control selects the engine's controller dispatch mode
	// (DESIGN.md §11): the zero value (signal.ControlAuto) runs the
	// batched control plane whenever the controller factory supports
	// it; signal.ControlPerJunction forces the per-junction Decide
	// loop. The two are pinned bit-for-bit equal — the axis exists so
	// trafficsim -control and the chaos drill can run either dispatch.
	Control signal.ControlMode
	// Events are the declarative disruption specs of the scenario
	// (internal/event, DESIGN.md §12): incidents, junction dark-mode,
	// sensor outages and demand surges, all scheduled in seconds.
	// BuildArtifact compiles them against the grid into the artifact's
	// immutable Schedule; empty means an undisrupted run. Disruptions
	// are deterministic scenario structure, not randomness — the same
	// setup replays the same faults on every seed.
	Events []event.Spec
}

// Default returns the paper's Section V setup. The physical saturation
// flow is 0.5 veh/s per movement (the standard ~1800 veh/h), which puts
// the queue simulator in the same congestion regime as the paper's SUMO
// runs; back-pressure decisions are invariant to a uniform µ scaling, so
// this choice only moves the operating point (see DESIGN.md §8).
func Default() Setup {
	grid := network.DefaultGridSpec()
	grid.Mu = 0.5
	return Setup{
		Grid:     grid,
		AmberSec: 4,
		Alpha:    -1,
		Beta:     -2,
		Seed:     1,
	}
}

func (s Setup) withDefaults() Setup {
	if s.Grid.Rows == 0 || s.Grid.Cols == 0 {
		s.Grid = network.DefaultGridSpec()
	}
	if s.AmberSec == 0 {
		s.AmberSec = 4
	}
	if s.Alpha == 0 {
		s.Alpha = -1
	}
	if s.Beta == 0 {
		s.Beta = -2
	}
	if s.TurnProbs == nil {
		s.TurnProbs = TableI
	}
	return s
}

// Build instantiates the scenario for a pattern: a fresh immutable
// Artifact plus mutable per-run collaborators. Callers that run many
// engines should build the artifact once (BuildArtifact or an
// ArtifactCache) and call Instantiate per engine instead, sharing the
// immutable part by reference.
func (s Setup) Build(pattern Pattern) (*Instance, error) {
	a, err := s.BuildArtifact(pattern)
	if err != nil {
		return nil, err
	}
	return a.Instantiate(), nil
}

// demandRate converts the pattern's Table II rows into a RateFunc over
// the grid's entry roads. The mixed pattern chains I..IV hourly; the
// rush-hour ramp scales the uniform Pattern II rates by a trapezoid.
func demandRate(g *network.GridNetwork, pattern Pattern) (sim.RateFunc, error) {
	if pattern == PatternRush {
		base, err := demandRate(g, PatternII)
		if err != nil {
			return nil, err
		}
		return func(r network.RoadID, t float64) float64 {
			return rushScale(t) * base(r, t)
		}, nil
	}
	if pattern == PatternMixed {
		pw := sim.NewPiecewise()
		for _, p := range Patterns {
			r, err := demandRate(g, p)
			if err != nil {
				return nil, err
			}
			if err := pw.Append(p.Duration(), r); err != nil {
				return nil, err
			}
		}
		return pw.Rate(), nil
	}
	table, err := pattern.InterArrival()
	if err != nil {
		return nil, err
	}
	rt := sim.RateTable{}
	for side, mean := range table {
		for _, rid := range g.Entries(side) {
			rt[rid] = mean
		}
	}
	return rt.Rate(), nil
}

// UtilBP returns the UTIL-BP factory configured for this setup.
func (s Setup) UtilBP() signal.Factory {
	s = s.withDefaults()
	return core.Factory(core.Options{
		Alpha:      s.Alpha,
		Beta:       s.Beta,
		AmberSteps: s.AmberSec,
		Variant:    core.GainVariant{CountApproaching: s.CountApproaching},
	})
}

// UtilBPVariant returns a UTIL-BP factory with ablation switches; the
// setup's detector convention is applied on top.
func (s Setup) UtilBPVariant(v core.GainVariant, noKeepPhase bool) signal.Factory {
	s = s.withDefaults()
	v.CountApproaching = s.CountApproaching
	return core.Factory(core.Options{
		Alpha:       s.Alpha,
		Beta:        s.Beta,
		AmberSteps:  s.AmberSec,
		Variant:     v,
		NoKeepPhase: noKeepPhase,
	})
}

// CapBP returns the CAP-BP factory with the given control phase period
// in seconds, using the same detector convention as UtilBP.
func (s Setup) CapBP(periodSec int) signal.Factory {
	s = s.withDefaults()
	opts := bp.SlotOptions{PeriodSteps: periodSec, AmberSteps: s.AmberSec}
	if s.CountApproaching {
		return bp.CAPBPApproaching(opts)
	}
	return bp.CAPBP(opts)
}

// CapBPNormalized returns the capacity-normalized CAP-BP variant, whose
// pressures are queue fractions of road capacity.
func (s Setup) CapBPNormalized(periodSec int) signal.Factory {
	s = s.withDefaults()
	return bp.CAPBPNormalized(bp.SlotOptions{PeriodSteps: periodSec, AmberSteps: s.AmberSec})
}

// OrigBP returns the original back-pressure factory of eq. (5).
func (s Setup) OrigBP(periodSec int) signal.Factory {
	s = s.withDefaults()
	return bp.ORIGBP(bp.SlotOptions{PeriodSteps: periodSec, AmberSteps: s.AmberSec})
}

// FixedTime returns a pretimed round-robin factory.
func (s Setup) FixedTime(greenSec int) signal.Factory {
	s = s.withDefaults()
	return fixedtime.Factory(fixedtime.Options{GreenSteps: greenSec, AmberSteps: s.AmberSec})
}

// MaxPressure returns the Varaiya-style MaxPressure factory with the
// given guaranteed green in seconds (0 = package default), using the
// same amber and detector conventions as UtilBP.
func (s Setup) MaxPressure(minGreenSec int) signal.Factory {
	s = s.withDefaults()
	return maxpressure.Factory(maxpressure.Options{
		MinGreenSteps:    minGreenSec,
		AmberSteps:       s.AmberSec,
		CountApproaching: s.CountApproaching,
	})
}

// GapOut returns the actuated gap-out factory with the given green
// bounds and gap-out timer in seconds (0 = package defaults).
func (s Setup) GapOut(minGreenSec, maxGreenSec, gapSec int) signal.Factory {
	s = s.withDefaults()
	return gapout.Factory(gapout.Options{
		MinGreenSteps: minGreenSec,
		MaxGreenSteps: maxGreenSec,
		GapSteps:      gapSec,
		AmberSteps:    s.AmberSec,
	})
}

// EstimatedBP returns the unknown-routing-rate back-pressure factory
// (internal/bpest): eq. (8)'s gains driven by online turn-ratio
// estimates with the given forgetting rate (0 = package default)
// instead of the frozen route table.
func (s Setup) EstimatedBP(estAlpha float64) signal.Factory {
	s = s.withDefaults()
	return bpest.Factory(bpest.Options{
		Alpha:      estAlpha,
		GainAlpha:  s.Alpha,
		GainBeta:   s.Beta,
		AmberSteps: s.AmberSec,
	})
}

// WithCentralIncident returns a copy of the setup carrying one
// capacity-drop incident on the plotted east approach of the grid's
// top-right junction (the road Figures 3-5 watch): for [t0, t0+dur)
// seconds its capacity falls to capFrac of nominal. It is the shared
// severity knob behind RobustnessSweep and the city-grid-incident
// workload — one named disrupted road per grid, derived from geometry
// instead of hard-coded names.
func (s Setup) WithCentralIncident(t0, dur, capFrac float64) (Setup, error) {
	s = s.withDefaults()
	g, err := network.Grid(s.Grid)
	if err != nil {
		return Setup{}, err
	}
	rid := EastApproach(g, TopRight(g))
	if rid == network.NoRoad {
		return Setup{}, fmt.Errorf("scenario: grid %dx%d has no east approach at the top-right junction",
			s.Grid.Rows, s.Grid.Cols)
	}
	spec := event.Incident(g.Road(rid).Name, t0, dur, capFrac)
	if err := spec.Validate(); err != nil {
		return Setup{}, err
	}
	s.Events = append(append([]event.Spec(nil), s.Events...), spec)
	return s, nil
}

// WithCornerAreaIncident anchors the k×k area incident at the grid's
// top-right junction — the corner the paper plots and the region the
// boundary demand loads first, so the closure binds even on horizons
// where a central area would sit in the fill transient's empty middle.
// It is the severity knob of experiment.StressSweep, the area-shaped
// sibling of WithCentralIncident.
func (s Setup) WithCornerAreaIncident(k int, t0, dur, capFrac float64) (Setup, error) {
	s = s.withDefaults()
	return s.WithAreaIncidentAt(0, s.Grid.Cols-1, k, t0, dur, capFrac)
}

// WithAreaIncidentAt returns a copy of the setup carrying a k×k area
// incident on the block of junctions centered on (row, col), clamped to
// the grid: every approach road entering a junction of the block drops
// to capFrac of nominal capacity for [t0, t0+dur) seconds. It models an
// area-wide incident — a closed-off district, flooding, a parade route
// — rather than WithCentralIncident's single blocked link. Each road
// enters exactly one junction, so the emitted incident specs are
// disjoint by construction and pass event.Compile's overlap rejection.
func (s Setup) WithAreaIncidentAt(row, col, k int, t0, dur, capFrac float64) (Setup, error) {
	s = s.withDefaults()
	if k < 1 {
		return Setup{}, fmt.Errorf("scenario: area incident size k=%d must be >= 1", k)
	}
	g, err := network.Grid(s.Grid)
	if err != nil {
		return Setup{}, err
	}
	if row < 0 || row >= g.Rows() || col < 0 || col >= g.Cols() {
		return Setup{}, fmt.Errorf("scenario: area incident center (%d,%d) outside %dx%d grid",
			row, col, g.Rows(), g.Cols())
	}
	r0, r1 := clampRange(row-(k-1)/2, k, g.Rows())
	c0, c1 := clampRange(col-(k-1)/2, k, g.Cols())
	events := append([]event.Spec(nil), s.Events...)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			j := g.Junction(g.JunctionAt(r, c))
			for _, dir := range network.Dirs {
				rid := j.In[dir]
				if rid == network.NoRoad {
					continue
				}
				spec := event.Incident(g.Road(rid).Name, t0, dur, capFrac)
				if err := spec.Validate(); err != nil {
					return Setup{}, err
				}
				events = append(events, spec)
			}
		}
	}
	s.Events = events
	return s, nil
}

// clampRange shifts a half-open [start, start+k) window to fit [0, n),
// shrinking only when k exceeds n.
func clampRange(start, k, n int) (int, int) {
	if k > n {
		return 0, n
	}
	if start < 0 {
		start = 0
	}
	if start+k > n {
		start = n - k
	}
	return start, start + k
}

// TopRight returns the north-eastern junction the paper plots in
// Figures 3-5.
func TopRight(g *network.GridNetwork) network.NodeID {
	return g.JunctionAt(0, g.Cols()-1)
}

// EastApproach returns the incoming road from the east at a junction,
// the road whose queue the paper plots in Figure 5.
func EastApproach(g *network.GridNetwork, junction network.NodeID) network.RoadID {
	j := g.Junction(junction)
	if j == nil {
		return network.NoRoad
	}
	return j.In[network.East]
}
