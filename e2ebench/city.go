package main

import (
	"fmt"
	"math"
	"time"

	"utilbp/internal/scenario"
	"utilbp/internal/sim"
	"utilbp/internal/stats"
)

// minReplays is the fewest timed replays a city run makes, however
// short its measuring time.
const minReplays = 3

// cityWork is a single-engine workload: one UTIL-BP engine on a
// registered city grid, replayed exactly with Engine.Reset(seed).
type cityWork struct {
	workload string
	seed     uint64
	steps    int
	// cutoff, when positive, silences demand from that step on, and
	// every replay must end with the grid empty.
	cutoff int
}

func newCityLoaded(seed uint64) *cityWork {
	return &cityWork{workload: "city-grid", seed: seed, steps: 3600}
}

// newCityDrain cuts demand at 600 s, after the incident, dark junction
// and surge have cleared (240 s), and runs on well past the ~1650 s at
// which the grid is empty.
func newCityDrain(seed uint64) *cityWork {
	return &cityWork{workload: "city-grid-incident", seed: seed, steps: 2400, cutoff: 600}
}

// artifact builds the workload's shared scenario artifact.
func (c *cityWork) artifact(tr *tracer) (*scenario.Artifact, error) {
	w, ok := scenario.WorkloadByName(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	setup := w.Setup
	setup.Seed = c.seed
	var art *scenario.Artifact
	var err error
	tr.do("scenario.Setup.BuildArtifact", func() { art, err = setup.BuildArtifact(w.Pattern) })
	return art, err
}

// engine instantiates the artifact and builds the engine on it.
func (c *cityWork) engine(art *scenario.Artifact, tr *tracer) (*sim.Engine, error) {
	var inst *scenario.Instance
	tr.do("scenario.Artifact.Instantiate", func() { inst = art.Instantiate() })
	demand, horizon := inst.Demand, c.steps
	if c.cutoff > 0 {
		demand, horizon = &sim.CutoffDemand{Inner: inst.Demand, CutoffStep: c.cutoff}, c.cutoff
	}
	var e *sim.Engine
	var err error
	tr.do("sim.New", func() {
		e, err = sim.New(sim.Config{
			Net:              inst.Grid.Network,
			Controllers:      inst.Setup.UtilBP(),
			Demand:           demand,
			Router:           inst.Router,
			Routes:           inst.Routes,
			Sensor:           inst.Sensor,
			Control:          inst.Setup.Control,
			Events:           inst.Events,
			ExpectedVehicles: inst.ExpectedVehicles(float64(horizon)),
		})
	})
	return e, err
}

func (c *cityWork) setup(tr *tracer) (*sim.Engine, error) {
	art, err := c.artifact(tr)
	if err != nil {
		return nil, err
	}
	return c.engine(art, tr)
}

// replay rewinds e and runs the horizon: in one Run call, with a clock
// read after every step when stepNS is set (ns per step, one read
// included), or through RunTraced when log is set.
func (c *cityWork) replay(b *bench, e *sim.Engine, stepNS []float64, log *sim.TraceLog, out *cellOut) {
	var err error
	t0 := time.Now()
	b.tr.do("sim.Engine.Reset", func() { err = e.Reset(c.seed) })
	if err != nil {
		b.check.pass(1, nil, err)
		return
	}
	t1 := time.Now()
	switch {
	case log != nil:
		pc := countPhases(e)
		log.Reset()
		b.tr.do("sim.Engine.RunTraced", func() { e.RunTraced(c.steps, log) })
		for k, ds := range log.Spans {
			for _, d := range ds {
				out.sub[k] += d
			}
		}
		out.decisions, out.switches = pc.decisions, pc.switches
	case stepNS != nil:
		last := t1
		for s := range stepNS {
			e.Run(1)
			now := time.Now()
			stepNS[s] = float64(now.Sub(last))
			last = now
		}
	default:
		b.tr.do("sim.Engine.Run", func() { e.Run(c.steps) })
	}
	out.run = time.Since(t1)
	b.tr.do("sim.Engine.FinalizeWaits", e.FinalizeWaits)
	b.tr.do("sim.Engine.CheckInvariants", func() { err = e.CheckInvariants() })
	var sum stats.WaitSummary
	b.tr.do("stats.SummarizeArena", func() { sum = stats.SummarizeArena(e.Arena()) })
	out.wall = time.Since(t0)
	out.totals = e.Totals()
	t := out.totals
	if err == nil && c.cutoff > 0 && t.Exited != t.Spawned {
		err = fmt.Errorf("grid not empty after %d steps: %d of %d vehicles exited", c.steps, t.Exited, t.Spawned)
	}
	b.check.pass(1, [][]float64{{float64(t.Spawned), float64(t.Entered), float64(t.Exited), float64(t.Served), float64(t.RouteFallbacks), sum.MeanWait}}, err)
}

// measure is the untraced run: the set-up, a reference replay, then
// rounds of a set-up (setup_s) and a replay timed step by step for the
// rest of the measuring time. Host contention only ever adds time and
// the replays repeat the same work exactly, so each step's estimate is
// its fastest replay: wall_s sums those floors plus the fastest rewind
// and tail, and the step percentiles are taken over the floors. A floor
// is an extreme of its step's samples, but wall_s and the percentiles
// gather thousands of floors, which makes them steadier across runs than
// the median replay, whose pace follows how busy the host's shared
// caches are in that run.
func (c *cityWork) measure(b *bench) error {
	var e *sim.Engine
	if err := b.timeSetup(func() (err error) { e, err = c.setup(nil); return err }); err != nil {
		return err
	}
	var out cellOut
	c.replay(b, e, nil, nil, &out) // warm-up and reference for the output check
	stepNS := make([]float64, c.steps)
	floor := make([]float64, c.steps)
	for s := range floor {
		floor[s] = math.Inf(1)
	}
	tail := math.Inf(1)
	replays := 0
	for round := time.Duration(0); replays < minReplays || b.fits(round); replays++ {
		t0 := time.Now()
		if err := b.timeSetup(func() error { _, err := c.setup(nil); return err }); err != nil {
			return err
		}
		c.replay(b, e, stepNS, nil, &out)
		tail = math.Min(tail, float64(out.wall-out.run))
		for s, ns := range stepNS {
			floor[s] = math.Min(floor[s], ns)
		}
		round = time.Since(t0)
	}
	total := tail
	for _, ns := range floor {
		total += ns
	}
	b.put("wall_s", total/1e9, "s")
	b.put("step_p50_us", quantile(floor, 0.5)/1e3, "us")
	b.put("step_p99_us", quantile(floor, 0.99)/1e3, "us")
	b.put("setup_s", median(b.setups), "s")
	b.logf("%d replays of %d steps (%d step samples): floors sum to %.4f s, step p50 %.2f us, p99 %.2f us; %d set-ups",
		replays, c.steps, replays*c.steps, total/1e9, quantile(floor, 0.5)/1e3, quantile(floor, 0.99)/1e3, len(b.setups))
	return nil
}

// trace is the traced run: set-up under spans, then rounds of one
// untraced replay (the untraced step and the run's allocations) and one
// traced replay (spans, substeps, decisions).
func (c *cityWork) trace(b *bench) error {
	clock := clockNS()
	once := map[string]float64{"host.clock_ns": clock}
	m0 := readMem()
	art, err := c.artifact(b.tr)
	if err != nil {
		return err
	}
	h0 := liveHeap()
	e, err := c.engine(art, b.tr)
	if err != nil {
		return err
	}
	once["sim.engine_mb"] = (liveHeap() - h0) / (1 << 20)
	putMem(once, "runtime.setup_", readMem().sub(m0))

	log := sim.NewTraceLog(c.steps)
	var rounds []map[string]float64
	for round := time.Duration(0); len(rounds) == 0 || b.fits(round); {
		t0 := time.Now()
		m := map[string]float64{}
		var untraced, traced cellOut
		m0 := readMem()
		c.replay(b, e, nil, nil, &untraced)
		putMem(m, "runtime.", readMem().sub(m0))
		b.tr.setOp(len(rounds))
		b.tr.do("replay", func() { c.replay(b, e, nil, log, &traced) })
		b.tr.setOp(-1)
		p := tracedPass{untracedRunNS: float64(untraced.run), untracedWall: untraced.wall.Seconds(), tracedWall: traced.wall.Seconds()}
		p.add(&traced, c.steps, "core", false)
		for k, v := range p.metrics(clock) {
			m[k] = v
		}
		rounds = append(rounds, m)
		round = time.Since(t0)
	}
	b.putLayers(rounds, once)
	return nil
}
