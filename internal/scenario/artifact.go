package scenario

import (
	"math"
	"sync"

	"utilbp/internal/event"
	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/sensing"
	"utilbp/internal/sim"
	"utilbp/internal/vehicle"
)

// Artifact is the immutable part of a built scenario: the network
// topology, the arrival-rate tables, the interned route table and the
// router's route-ID layout. It is built once per (setup, pattern) and is
// safe to share by reference across engines, sweep workers and
// goroutines — nothing in it is written after BuildArtifact returns
// (DESIGN.md §5). The mutable per-run collaborators (RNG-backed demand
// and router streams) live in Instance.
type Artifact struct {
	// Grid is the instantiated road network.
	Grid *network.GridNetwork
	// Routes is the interned route table; every RouteID handed out by
	// this artifact's routers indexes it. Read-only after build.
	Routes *vehicle.RouteTable
	// Rate is the arrival-rate function, kept so callers can integrate
	// the demand horizon (see ExpectedVehicles). It is a pure function
	// over immutable tables.
	Rate sim.RateFunc
	// Duration is the pattern's default horizon in seconds.
	Duration float64
	// Setup records the constants the artifact was built with (defaults
	// applied).
	Setup Setup
	// Pattern is the demand pattern the artifact was built for.
	Pattern Pattern
	// Events is the disruption schedule compiled from Setup.Events
	// against this grid (internal/event, DESIGN.md §12), nil for an
	// undisrupted scenario. Like everything else here it is immutable
	// and shared by reference: engines arm it per run via
	// sim.Config.Events. Demand surges are already woven into Rate and
	// sensor outages into every sensor NewSensor builds, so callers only
	// wire the schedule itself to the engine.
	Events *event.Schedule
	// routes is the router's precomputed interned-ID layout.
	routes *routeIndex
}

// Instance binds the shared immutable Artifact to the mutable per-run
// collaborators: a demand process and a router, each owning RNG streams.
// One engine uses one instance at a time; create a fresh instance per
// concurrent engine (instances are cheap — the artifact dominates).
type Instance struct {
	*Artifact
	// Demand is the arrival process driving the entry roads.
	Demand sim.ArrivalProcess
	// Router assigns interned routes to spawned vehicles.
	Router sim.RouteChooser
	// Sensor is the per-run observation sensor built from
	// Setup.Sensor, seeded for the run; nil for the perfect spec (the
	// engine's sensor-free fast path). Like Demand and Router it is
	// mutable per-run state: one engine at a time.
	Sensor sensing.Sensor
}

// BuildArtifact builds the immutable scenario artifact for a pattern:
// everything shareable across engines, with no RNG state.
func (s Setup) BuildArtifact(pattern Pattern) (*Artifact, error) {
	s = s.withDefaults()
	if err := s.Sensor.Validate(); err != nil {
		return nil, err
	}
	g, err := network.Grid(s.Grid)
	if err != nil {
		return nil, err
	}
	rate, err := demandRate(g, pattern)
	if err != nil {
		return nil, err
	}
	if s.DemandScale > 0 && s.DemandScale != 1 {
		base := rate
		scale := s.DemandScale
		rate = func(r network.RoadID, t float64) float64 { return scale * base(r, t) }
	}
	// Engines step at the default mini-slot of 1 s throughout this
	// stack; the schedule's step grid must match (sim.New verifies).
	events, err := event.Compile(g.Network, 1, s.Events)
	if err != nil {
		return nil, err
	}
	// Surge windows wrap the rate after DemandScale, so the artifact's
	// Rate — and everything integrating it, like ExpectedVehicles —
	// already includes the surged demand.
	rate = events.WrapRate(rate)
	table := vehicle.NewRouteTable()
	return &Artifact{
		Grid:     g,
		Routes:   table,
		Rate:     rate,
		Duration: pattern.Duration(),
		Setup:    s,
		Pattern:  pattern,
		Events:   events,
		routes:   buildRouteIndex(g, s.TurnProbs, table),
	}, nil
}

// Instantiate derives the mutable per-run collaborators from the
// artifact's seed (Setup.Seed), exactly as Build does: the demand root
// is rng.New(seed).Split("demand") and the route stream
// rng.New(seed).Split("routes"), so a run on any instance of this
// artifact replays bit-for-bit like one on a freshly built scenario.
func (a *Artifact) Instantiate() *Instance {
	root := rng.New(a.Setup.Seed)
	demand := sim.NewPoissonDemand(root.Split("demand"), a.Rate)
	demand.SetDerivation(func(seed uint64) *rng.Source {
		return rng.New(seed).Split("demand")
	})
	// The spec was validated at BuildArtifact; NewSensor cannot fail here.
	sensor, _ := a.NewSensor(a.Setup.Sensor, a.Setup.Seed)
	return &Instance{
		Artifact: a,
		Demand:   demand,
		Router:   a.NewRouter(root.Split("routes")),
		Sensor:   sensor,
	}
}

// NewSensor builds the observation sensor a run of this artifact sees
// under spec, seeded for the run seed: spec.New(), wrapped with the
// schedule's sensor outages, then reseeded. It returns nil for a
// perfect spec with no outage scheduled — the engine's sensor-free fast
// path; with outages a perfect spec is promoted onto an explicit
// sensing.Perfect, since the fast path has nothing to intercept. Every
// run's sensor comes from here, fresh or on a cached engine, so the two
// paths cannot disagree on what a cell observes.
func (a *Artifact) NewSensor(spec sensing.Spec, seed uint64) (sensing.Sensor, error) {
	var sensor sensing.Sensor
	if !spec.Perfect() {
		var err error
		if sensor, err = spec.New(); err != nil {
			return nil, err
		}
	}
	sensor = a.Events.WrapSensor(sensor)
	if sensor != nil {
		sensor.Reseed(seed)
	}
	return sensor, nil
}

// ExpectedVehicles estimates how many vehicles the demand generates over
// a horizon of durationSec seconds, by integrating the arrival rate over
// every entry road. The sim layer uses it to pre-size the vehicle arena
// so the spawn path never grows a slice mid-run; the estimate includes
// Poisson headroom, so it is an upper bound for typical runs, not a hard
// limit — the arena still grows if a run exceeds it.
func (a *Artifact) ExpectedVehicles(durationSec float64) int {
	if a.Rate == nil || durationSec <= 0 {
		return 0
	}
	// Sample the (piecewise-constant) rate on a 60 s grid; exact for the
	// paper's hourly pattern switches and close enough elsewhere.
	const sampleSec = 60.0
	total := 0.0
	for _, side := range network.Dirs {
		for _, rid := range a.Grid.Entries(side) {
			for t := 0.0; t < durationSec; t += sampleSec {
				step := sampleSec
				if rem := durationSec - t; rem < step {
					step = rem
				}
				total += a.Rate(rid, t) * step
			}
		}
	}
	// ~4σ Poisson headroom plus a constant floor for tiny horizons.
	return int(total+4*math.Sqrt(total)) + 64
}

// ArtifactCache builds and shares immutable scenario artifacts, one per
// pattern, for a fixed base setup. It is safe for concurrent use: every
// sweep worker can hold the same cache, and all of them receive the same
// artifact pointer for a pattern — the network, rate tables and route
// table exist once per process instead of once per worker (DESIGN.md
// §5). The zero value is not usable; construct with NewArtifactCache.
type ArtifactCache struct {
	base Setup
	mu   sync.Mutex
	arts map[Pattern]*Artifact
}

// NewArtifactCache returns an empty cache bound to the given base setup.
func NewArtifactCache(base Setup) *ArtifactCache {
	return &ArtifactCache{base: base, arts: make(map[Pattern]*Artifact)}
}

// Base returns the setup the cache builds artifacts for.
func (c *ArtifactCache) Base() Setup { return c.base }

// Get returns the shared artifact for a pattern, building it on first
// use. Concurrent callers for the same pattern receive the same pointer.
func (c *ArtifactCache) Get(pattern Pattern) (*Artifact, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.arts[pattern]; ok {
		return a, nil
	}
	a, err := c.base.BuildArtifact(pattern)
	if err != nil {
		return nil, err
	}
	c.arts[pattern] = a
	return a, nil
}
