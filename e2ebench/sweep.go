package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"utilbp/internal/analysis"
	"utilbp/internal/experiment"
	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/stats"
)

// sweepWork is a pooled-sweep workload: the public pooled call users run,
// and the same cells laid out for a serial replica that the driver steps
// itself. The replica mirrors experiment.EngineCache.Run call for call
// (ResetWith with the same options, the horizon, FinalizeWaits,
// CheckInvariants, SummarizeArena), and its outputs must equal the
// pooled call's bit for bit, which the output check enforces. It gives
// the sweeps their step-latency samples and the traced run its spans.
type sweepWork struct {
	pooledName string
	ops        int // outputs per pass
	pooled     func() ([][]float64, error)
	artifacts  func(tr *tracer) ([]*scenario.Artifact, error)
	cells      func(arts []*scenario.Artifact) ([]cell, error)
	fold       func(outs []cellOut) ([][]float64, error)
}

// cell is one replica cell: a controller on an artifact for one seed.
type cell struct {
	art     *scenario.Artifact
	family  string // engine-cache family; cells of one family share an engine
	layer   string // package of the controller family: core, bp, bpest, ...
	factory signal.Factory
	sensor  sensing.Spec
	seed    uint64
	steps   int
}

// newSensor builds the cell's observation sensor, nil for perfect
// observation, as experiment.MatrixSweep does for each cell.
func (c *cell) newSensor() (sensing.Sensor, error) {
	if c.sensor.Perfect() {
		return nil, nil
	}
	s, err := c.sensor.New()
	if err != nil {
		return nil, err
	}
	s.Reseed(c.seed)
	return s, nil
}

// cellOut is one replica cell's outputs and timings.
type cellOut struct {
	meanWait, completion float64
	totals               sim.Totals
	wall                 time.Duration // ResetWith through SummarizeArena
	run                  time.Duration // stepping alone
	sub                  [sim.NumSubsteps]time.Duration
	decisions, switches  int
}

// newTable3 sweeps one simulation seed per pass: 45 cells, ~0.6 s pooled
// and ~1.2 s serial, so a 28 s run holds ~14 rounds; with two seeds it
// held 7.
func newTable3(seed uint64) *sweepWork {
	base := scenario.Default()
	patterns := scenario.AllPatterns
	periods := experiment.CoarsePeriods()
	seeds := passSeeds(seed, 1)
	per := len(periods) + 1
	return &sweepWork{
		pooledName: "experiment.TableIIIMultiSeed",
		ops:        len(patterns) * len(seeds),
		pooled: func() ([][]float64, error) {
			rows, err := experiment.TableIIIMultiSeed(base, patterns, periods, 0, seeds)
			if err != nil {
				return nil, err
			}
			var out [][]float64
			for _, r := range rows {
				for _, imp := range r.Improvements {
					out = append(out, []float64{imp})
				}
			}
			return out, nil
		},
		artifacts: func(tr *tracer) ([]*scenario.Artifact, error) {
			arts := make([]*scenario.Artifact, len(patterns))
			for i, p := range patterns {
				var err error
				tr.do("scenario.Setup.BuildArtifact", func() { arts[i], err = base.BuildArtifact(p) })
				if err != nil {
					return nil, err
				}
			}
			return arts, nil
		},
		cells: func(arts []*scenario.Artifact) ([]cell, error) {
			var cells []cell
			for pi := range patterns {
				for _, s := range seeds {
					setup := base
					setup.Seed = s
					steps := int(arts[pi].Duration)
					for _, p := range periods {
						cells = append(cells, cell{art: arts[pi], family: string(experiment.FamilyCapBP), layer: "bp", factory: setup.CapBP(p), seed: s, steps: steps})
					}
					cells = append(cells, cell{art: arts[pi], family: string(experiment.FamilyUtilBP), layer: "core", factory: setup.UtilBP(), seed: s, steps: steps})
				}
			}
			return cells, nil
		},
		// fold reproduces the pooled sweep's aggregation: per (pattern,
		// seed), UTIL-BP against the first-minimum CAP-BP period.
		fold: func(outs []cellOut) ([][]float64, error) {
			var out [][]float64
			for g := 0; g < len(outs); g += per {
				waits := make([]float64, len(periods))
				for j := range waits {
					waits[j] = outs[g+j].meanWait
				}
				imp, err := analysis.Improvement(waits[analysis.ArgMin(waits)], outs[g+len(periods)].meanWait)
				if err != nil {
					return nil, err
				}
				out = append(out, []float64{imp * 100})
			}
			return out, nil
		},
	}
}

// zooWorkload is the matrix sweep's grid: 8×8, Pattern IV, at its
// registered 450 s sweep horizon.
const zooWorkload = "downtown-core"

func newZoo(seed uint64) *sweepWork {
	w, _ := scenario.WorkloadByName(zooWorkload)
	ctls := experiment.DefaultMatrixControllers()
	sensors := []sensing.Spec{{}, sensing.CV(0.3)}
	seeds := passSeeds(seed, 4)
	layers := map[scenario.ControllerKind]string{
		scenario.ControllerUtil:        "core",
		scenario.ControllerCap:         "bp",
		scenario.ControllerFixed:       "fixedtime",
		scenario.ControllerMaxPressure: "maxpressure",
		scenario.ControllerGapOut:      "gapout",
		scenario.ControllerBPEst:       "bpest",
	}
	return &sweepWork{
		pooledName: "experiment.MatrixSweep",
		ops:        len(ctls) * len(sensors),
		pooled: func() ([][]float64, error) {
			rows, err := experiment.MatrixSweep([]string{zooWorkload}, ctls, sensors, seeds, 0)
			if err != nil {
				return nil, err
			}
			var out [][]float64
			for _, r := range rows {
				out = append(out, append(append([]float64(nil), r.MeanWaits...), r.CompletionRate))
			}
			return out, nil
		},
		artifacts: func(tr *tracer) ([]*scenario.Artifact, error) {
			var a *scenario.Artifact
			var err error
			tr.do("scenario.Setup.BuildArtifact", func() { a, err = w.Setup.BuildArtifact(w.Pattern) })
			return []*scenario.Artifact{a}, err
		},
		cells: func(arts []*scenario.Artifact) ([]cell, error) {
			var cells []cell
			steps := int(w.SweepHorizon(0))
			for _, ctl := range ctls {
				for _, spec := range sensors {
					for _, s := range seeds {
						setup := w.Setup
						setup.Seed = s
						setup.Sensor = spec
						f, err := setup.Controller(ctl)
						if err != nil {
							return nil, err
						}
						cells = append(cells, cell{art: arts[0], family: ctl.Kind.String(), layer: layers[ctl.Kind], factory: f, sensor: spec, seed: s, steps: steps})
					}
				}
			}
			return cells, nil
		},
		// fold reproduces MatrixSweep's rows: per (controller, sensor),
		// the per-seed mean waits and the mean completion rate.
		fold: func(outs []cellOut) ([][]float64, error) {
			var out [][]float64
			for r := 0; r < len(outs); r += len(seeds) {
				row := make([]float64, 0, len(seeds)+1)
				comp := 0.0
				for k := range seeds {
					row = append(row, outs[r+k].meanWait)
					comp += outs[r+k].completion
				}
				out = append(out, append(row, comp/float64(len(seeds))))
			}
			return out, nil
		},
	}
}

// replica holds the engines of one serial sweep worker, keyed like
// experiment.EngineCache: one instance per artifact and one engine per
// (grid, controller family).
type replica struct {
	cells   []cell
	inst    map[*scenario.Artifact]*scenario.Instance
	engines map[engineKey]*sim.Engine
}

type engineKey struct {
	grid   network.GridSpec
	family string
}

// setup builds what the pooled call builds before its cells run: the
// shared artifacts, and per worker an instance per artifact and an
// engine per family. It keeps the last worker's as the replica.
func (s *sweepWork) setup(tr *tracer) (*replica, error) {
	arts, err := s.artifacts(tr)
	if err != nil {
		return nil, err
	}
	cells, err := s.cells(arts)
	if err != nil {
		return nil, err
	}
	var r *replica
	for w := 0; w < workers(len(cells)); w++ {
		if r, err = newReplica(cells, tr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// workers is the pooled sweeps' worker count for n cells.
func workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

func newReplica(cells []cell, tr *tracer) (*replica, error) {
	r := &replica{cells: cells, inst: map[*scenario.Artifact]*scenario.Instance{}, engines: map[engineKey]*sim.Engine{}}
	for i := range cells {
		c := &cells[i]
		inst, ok := r.inst[c.art]
		if !ok {
			tr.do("scenario.Artifact.Instantiate", func() { inst = c.art.Instantiate() })
			r.inst[c.art] = inst
		}
		key := engineKey{c.art.Grid.Spec, c.family}
		if _, ok := r.engines[key]; ok {
			continue
		}
		sensor, err := c.newSensor()
		if err != nil {
			return nil, err
		}
		var e *sim.Engine
		tr.do("sim.New", func() {
			e, err = sim.New(sim.Config{
				Net:              inst.Grid.Network,
				Controllers:      c.factory,
				Demand:           inst.Demand,
				Router:           inst.Router,
				Routes:           inst.Routes,
				Sensor:           sensor,
				Control:          inst.Setup.Control,
				Events:           inst.Events,
				ExpectedVehicles: inst.ExpectedVehicles(float64(c.steps)),
			})
		})
		if err != nil {
			return nil, err
		}
		r.engines[key] = e
	}
	return r, nil
}

// stepper advances a replica cell: one Run(1) per mini-slot with a clock
// read after each (stepNS collects ns per step, one read included), or,
// when log is set, through RunTraced with a Phase hook counting decisions
// and switches. A clock read costs ~50–90 ns: ~0.3 % of an 8×8 step, but
// ~3 % of a 3×3 step, which paper-table3's step percentiles carry.
type stepper struct {
	stepNS []float64
	log    *sim.TraceLog
}

func (st *stepper) step(e *sim.Engine, steps int, out *cellOut, tr *tracer) {
	if st.log == nil {
		last := time.Now()
		for i := 0; i < steps; i++ {
			e.Run(1)
			now := time.Now()
			st.stepNS = append(st.stepNS, float64(now.Sub(last)))
			last = now
		}
		return
	}
	pc := countPhases(e)
	st.log.Reset()
	tr.do("sim.Engine.RunTraced", func() { e.RunTraced(steps, st.log) })
	for k, ds := range st.log.Spans {
		for _, d := range ds {
			out.sub[k] += d
		}
	}
	out.decisions, out.switches = pc.decisions, pc.switches
}

// runAll runs every cell in plan order.
func (r *replica) runAll(st *stepper, tr *tracer) ([]cellOut, error) {
	outs := make([]cellOut, len(r.cells))
	for i := range r.cells {
		var err error
		tr.setOp(i)
		tr.do("cell", func() { outs[i], err = r.run(&r.cells[i], st, tr) })
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	tr.setOp(-1)
	return outs, nil
}

// run executes one cell the way experiment.EngineCache.Run does.
func (r *replica) run(c *cell, st *stepper, tr *tracer) (cellOut, error) {
	var out cellOut
	inst := r.inst[c.art]
	e := r.engines[engineKey{c.art.Grid.Spec, c.family}]
	sensor, err := c.newSensor()
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	tr.do("sim.Engine.ResetWith", func() {
		err = e.ResetWith(c.seed, sim.ResetOptions{
			Controllers: c.factory,
			Demand:      inst.Demand,
			Router:      inst.Router,
			Routes:      inst.Routes,
			Sensor:      sensor,
			ClearSensor: sensor == nil,
			Control:     inst.Setup.Control,
			SetControl:  true,
			Events:      inst.Events,
			ClearEvents: inst.Events == nil,
		})
	})
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	st.step(e, c.steps, &out, tr)
	out.run = time.Since(t1)
	tr.do("sim.Engine.FinalizeWaits", e.FinalizeWaits)
	tr.do("sim.Engine.CheckInvariants", func() { err = e.CheckInvariants() })
	if err != nil {
		return out, err
	}
	var sum stats.WaitSummary
	tr.do("stats.SummarizeArena", func() { sum = stats.SummarizeArena(e.Arena()) })
	out.wall = time.Since(t0)
	out.meanWait, out.completion, out.totals = sum.MeanWait, sum.CompletionRate, e.Totals()
	return out, nil
}

// pooledPass runs and checks one pooled call from a freshly collected
// heap, so every pass starts the collector from the same state. It
// returns the pass's wall time and what it allocated.
func (s *sweepWork) pooledPass(b *bench) (float64, memSample) {
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	var out [][]float64
	var err error
	b.tr.do(s.pooledName, func() { out, err = s.pooled() })
	d := time.Since(t0).Seconds()
	m := readMem().sub(m0)
	b.check.pass(s.ops, out, err)
	return d, m
}

// replicaPass runs and checks one replica pass.
func (s *sweepWork) replicaPass(b *bench, r *replica, st *stepper, tr *tracer) ([]cellOut, error) {
	outs, err := r.runAll(st, tr)
	if err != nil {
		b.check.pass(s.ops, nil, err)
		return nil, err
	}
	groups, err := s.fold(outs)
	b.check.pass(s.ops, groups, err)
	return outs, err
}

// sweepSetups is how many set-ups a sweep's measuring round times for
// setup_s: a round takes seconds and a set-up milliseconds.
const sweepSetups = 3

// measure is the untraced run: the set-up, a reference pooled pass, then
// rounds of set-ups (setup_s), a replica pass (step latency) and a pooled
// pass (wall_s) for the rest of the measuring time. The passes repeat the
// same work exactly. Per mini-slot the estimate is the fastest replica
// pass, as cityWork.measure explains. wall_s is the median pooled
// pass: one pass is one sample, and the fastest of a dozen is a lone
// moment when neither core had a neighbour, which comes or not by chance.
func (s *sweepWork) measure(b *bench) error {
	var r *replica
	if err := b.timeSetup(func() (err error) { r, err = s.setup(nil); return err }); err != nil {
		return err
	}
	s.pooledPass(b) // warm-up and reference for the output check
	st := &stepper{}
	var walls, floor []float64
	for round := time.Duration(0); len(walls) == 0 || b.fits(round); {
		t0 := time.Now()
		for i := 0; i < sweepSetups; i++ {
			if err := b.timeSetup(func() error { _, err := s.setup(nil); return err }); err != nil {
				return err
			}
		}
		st.stepNS = st.stepNS[:0]
		if _, err := s.replicaPass(b, r, st, nil); err != nil {
			return err
		}
		if floor == nil {
			floor = append([]float64(nil), st.stepNS...)
		}
		for i, ns := range st.stepNS {
			floor[i] = math.Min(floor[i], ns)
		}
		wall, _ := s.pooledPass(b)
		walls = append(walls, wall)
		round = time.Since(t0)
	}
	b.put("wall_s", median(walls), "s")
	b.put("step_p50_us", quantile(floor, 0.5)/1e3, "us")
	b.put("step_p99_us", quantile(floor, 0.99)/1e3, "us")
	b.put("setup_s", median(b.setups), "s")
	b.logf("%d pooled passes: wall_s min %.4f median %.4f max %.4f; %d replica passes of %d steps; %d set-ups",
		len(walls), quantile(walls, 0), median(walls), quantile(walls, 1), len(walls), len(floor), len(b.setups))
	return nil
}

// trace is the traced run: set-up under spans, then rounds of a pooled
// pass (the pool's wall and allocations), an untraced replica pass (cell
// times, the untraced step) and a traced replica pass (spans, substeps,
// decisions) until the measuring time is used.
func (s *sweepWork) trace(b *bench) error {
	clock := clockNS()
	once := map[string]float64{"host.clock_ns": clock}
	m0 := readMem()
	r, err := s.setup(b.tr)
	if err != nil {
		return err
	}
	putMem(once, "runtime.setup_", readMem().sub(m0))
	h0 := liveHeap()
	extra, err := newReplica(r.cells, nil)
	if err != nil {
		return err
	}
	once["sim.engine_mb"] = (liveHeap() - h0) / float64(len(extra.engines)) / (1 << 20)
	runtime.KeepAlive(extra)
	once["experiment.cells"] = float64(len(r.cells))
	once["experiment.engines"] = float64(len(r.engines) * workers(len(r.cells)))

	maxSteps := 0
	for _, c := range r.cells {
		maxSteps = max(maxSteps, c.steps)
	}
	log := sim.NewTraceLog(maxSteps)
	var rounds []map[string]float64
	for round := time.Duration(0); len(rounds) == 0 || b.fits(round); {
		t0 := time.Now()
		m := map[string]float64{}
		wall, mem := s.pooledPass(b)
		putMem(m, "runtime.", mem)
		untraced, err := s.replicaPass(b, r, &stepper{}, nil)
		if err != nil {
			return err
		}
		traced, err := s.replicaPass(b, r, &stepper{log: log}, b.tr)
		if err != nil {
			return err
		}
		var p tracedPass
		var cellMS []float64
		for i, c := range r.cells {
			u := untraced[i].wall.Seconds()
			cellMS = append(cellMS, u*1e3)
			p.untracedWall += u
			p.untracedRunNS += float64(untraced[i].run)
			p.tracedWall += traced[i].wall.Seconds()
			p.add(&traced[i], c.steps, c.layer, !c.sensor.Perfect())
		}
		for k, v := range p.metrics(clock) {
			m[k] = v
		}
		m["experiment.cell_p50_ms"] = median(cellMS)
		m["experiment.cell_max_ms"] = quantile(cellMS, 1)
		m["experiment.busy_s"] = p.untracedWall
		m["experiment.pool_speedup"] = p.untracedWall / wall
		rounds = append(rounds, m)
		round = time.Since(t0)
	}
	b.putLayers(rounds, once)
	return nil
}
