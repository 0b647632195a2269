package sim

import (
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
	"utilbp/internal/vehicle"
)

// captureCtrl records the observations it receives, each link read
// from its rows, while holding one phase.
type captureCtrl struct {
	phase signal.Phase
	seen  [][]signaltest.LinkObs
}

func (c *captureCtrl) Name() string { return "capture" }
func (c *captureCtrl) Decide(obs *signal.Obs) signal.Phase {
	links := make([]signaltest.LinkObs, len(obs.Links))
	for li := range links {
		links[li] = signaltest.Get(&obs.Links[li], obs.Rows)
	}
	c.seen = append(c.seen, links)
	return c.phase
}

// TestStartupLostTimeDelaysService: with 2 s startup lost time, a freshly
// green link must not serve during its first two mini-slots.
func TestStartupLostTimeDelaysService(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 3)
	// Controller: amber until step 40 (by then the vehicles queue), then
	// phase 1 green.
	swCtrl := signal.FactoryFunc{Label: "switch", Build: func(signal.JunctionInfo) (signal.Controller, error) {
		return stepCtrl{at: 40, before: signal.Amber, after: 1}, nil
	}}
	e, err := New(Config{
		Net:              g.Network,
		Controllers:      swCtrl,
		Demand:           sched,
		Router:           StraightRouter{},
		StartupLostSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(40)
	if e.Totals().Served != 0 {
		t.Fatal("served during amber")
	}
	queued := e.ApproachQueue(north)
	if queued != 3 {
		t.Fatalf("expected 3 queued before green, got %d", queued)
	}
	// Green starts at step 40. Steps 40 and 41 are startup-lost; the
	// first service lands on step 42 (µ=1).
	e.Run(1) // step 40
	if got := e.Totals().Served; got != 0 {
		t.Fatalf("served %d during first green second (startup)", got)
	}
	e.Run(1) // step 41
	if got := e.Totals().Served; got != 0 {
		t.Fatalf("served %d during second green second (startup)", got)
	}
	e.Run(1) // step 42
	if got := e.Totals().Served; got != 1 {
		t.Fatalf("served %d at step 42, want 1", got)
	}
}

// stepCtrl returns before until step at, after from then on.
type stepCtrl struct {
	at            int
	before, after signal.Phase
}

func (s stepCtrl) Name() string { return "step" }
func (s stepCtrl) Decide(obs *signal.Obs) signal.Phase {
	if obs.Step < s.at {
		return s.before
	}
	return s.after
}

// TestStartupLostDisabled: negative StartupLostSteps disables the debt.
func TestStartupLostDisabled(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 3)
	e, err := New(Config{
		Net: g.Network,
		Controllers: signal.FactoryFunc{Label: "s", Build: func(signal.JunctionInfo) (signal.Controller, error) {
			return stepCtrl{at: 40, before: signal.Amber, after: 1}, nil
		}},
		Demand:           sched,
		Router:           StraightRouter{},
		StartupLostSteps: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(41) // green fires at step 40
	if got := e.Totals().Served; got != 1 {
		t.Fatalf("served %d with startup disabled, want 1 immediately", got)
	}
}

// TestFractionalServiceRate: µ=0.5 serves one vehicle every two green
// seconds (after the startup debt).
func TestFractionalServiceRate(t *testing.T) {
	spec := network.DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 1
	spec.Capacity = 30
	spec.Mu = 0.5
	g, err := network.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 10)
	e, err := New(Config{
		Net:              g.Network,
		Controllers:      staticFactory(1),
		Demand:           sched,
		Router:           StraightRouter{},
		StartupLostSteps: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Travel ~22 s; by step 30 everything queues. Then service at 0.5/s:
	// 10 vehicles need ~20 s.
	e.Run(30)
	served30 := e.Totals().Served
	e.Run(10)
	served40 := e.Totals().Served
	delta := served40 - served30
	if delta < 4 || delta > 6 {
		t.Fatalf("served %d in 10 s at µ=0.5, want ~5", delta)
	}
}

// TestTransitObservation: a controller sees vehicles first as InTransit,
// then as Queue, with the per-lane split following the route plan.
func TestTransitObservation(t *testing.T) {
	g := grid1x1(t)
	north := g.Entries(network.North)[0]
	sched := NewScheduledDemand()
	sched.Add(north, 0, 2)
	ctrl := &captureCtrl{phase: signal.Amber}
	router, routes := fixedRoute(vehicle.OneTurn(network.Left, 0))
	e, err := New(Config{
		Net:         g.Network,
		Controllers: signal.FactoryFunc{Label: "c", Build: func(signal.JunctionInfo) (signal.Controller, error) { return ctrl, nil }},
		Demand:      sched,
		Router:      router,
		Routes:      routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(60)
	j := g.Junction(g.JunctionAt(0, 0))
	leftLink := j.LinkFor(network.North, network.Left)
	if leftLink < 0 {
		t.Fatal("no north-left link")
	}
	sawTransit, sawQueue := false, false
	for _, links := range ctrl.seen {
		l := links[leftLink]
		if l.InTransit == 2 && l.Queue == 0 {
			sawTransit = true
		}
		if l.Queue == 2 && l.InTransit == 0 {
			sawQueue = true
		}
		if l.InTransit+l.Queue > 2 {
			t.Fatalf("overcounted lane: %+v", l)
		}
		// The straight lane must never see these left-bound vehicles.
		s := links[j.LinkFor(network.North, network.Straight)]
		if s.Queue != 0 || s.InTransit != 0 {
			t.Fatalf("left-bound vehicles leaked into the straight lane: %+v", s)
		}
	}
	if !sawTransit {
		t.Error("never observed vehicles in transit toward the left lane")
	}
	if !sawQueue {
		t.Error("never observed vehicles queued in the left lane")
	}
}

// TestRouteFallbackCounted: on a T junction, a vehicle routed toward the
// missing arm is rerouted and counted.
func TestRouteFallbackCounted(t *testing.T) {
	// 1x1 grid but remove the east arm by building a custom T junction.
	b := network.NewBuilder()
	j := b.AddNode(network.JunctionNode, 0, 0, "T")
	tn := b.AddNode(network.TerminalNode, 0, -100, "N")
	ts := b.AddNode(network.TerminalNode, 0, 100, "S")
	tw := b.AddNode(network.TerminalNode, -100, 0, "W")
	entry := b.AddRoad(tn, j, network.South, 100, 10, 50, "in-n")
	b.AddRoad(j, tn, network.North, 100, 10, 0, "out-n")
	b.AddRoad(ts, j, network.North, 100, 10, 50, "in-s")
	b.AddRoad(j, ts, network.South, 100, 10, 0, "out-s")
	b.AddRoad(tw, j, network.East, 100, 10, 50, "in-w")
	b.AddRoad(j, tw, network.West, 100, 10, 0, "out-w")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduledDemand()
	sched.Add(entry, 0, 1)
	// From the north heading south, a left turn exits east — the
	// missing arm.
	router, routes := fixedRoute(vehicle.OneTurn(network.Left, 0))
	e, err := New(Config{
		Net:         net,
		Controllers: staticFactory(1),
		Demand:      sched,
		Router:      router,
		Routes:      routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(120)
	if got := e.Totals().RouteFallbacks; got != 1 {
		t.Fatalf("route fallbacks = %d, want 1", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The vehicle must still have exited somewhere.
	if e.Totals().Exited != 1 {
		t.Fatalf("rerouted vehicle did not exit: %+v", e.Totals())
	}
}

// TestMixedLanesDeterminism: the HOL path is reproducible too.
func TestMixedLanesDeterminism(t *testing.T) {
	run := func() Totals {
		g := grid1x1(t)
		e, err := New(Config{
			Net:         g.Network,
			Controllers: staticFactory(1),
			Demand:      NewPoissonDemand(rng.New(7), ConstantRate(0.2)),
			Router:      StraightRouter{},
			MixedLanes:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(800)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return e.Totals()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("mixed-lane runs diverged: %+v vs %+v", a, b)
	}
}
