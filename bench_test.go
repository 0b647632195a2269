// Benchmarks regenerating the paper's evaluation artifacts, one target
// per table/figure plus the ablation and sensitivity studies indexed in
// DESIGN.md. Horizons are shortened (benchmarks are smoke-scale);
// full-horizon numbers are regenerated with cmd/papereval, and
// end-to-end and per-layer performance is measured by the e2ebench
// driver (see PERF.md).
//
// The interesting output is the custom metrics (cap_wait_s, util_wait_s,
// improvement_pct, ...) reported next to the usual ns/op.
package utilbp

import (
	"testing"

	"utilbp/internal/core"
	"utilbp/internal/event"
	"utilbp/internal/experiment"
	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/stability"
	"utilbp/internal/telemetry"
)

// benchSetup returns the paper configuration with a fixed seed.
func benchSetup() Setup {
	s := DefaultSetup()
	s.Seed = 1
	return s
}

const (
	benchHorizon = 1200.0 // seconds of simulated time per run
	figHorizon   = 2000.0 // the paper's Figures 3-5 horizon
)

// benchPeriods is a coarse CAP-BP sweep for benchmark-scale runs.
var benchPeriods = []int{14, 22, 30, 38}

// table3Bench runs one Table III row at benchmark scale and reports the
// paper's three columns as metrics.
func table3Bench(b *testing.B, pattern Pattern) {
	b.Helper()
	setup := benchSetup()
	// The mixed pattern switches demand hourly, so truncating it would
	// just replay Pattern I; run it at the paper's full 4 h horizon.
	horizon := benchHorizon
	if pattern == PatternMixed {
		horizon = 0
	}
	var row TableIIIRow
	for i := 0; i < b.N; i++ {
		rows, err := TableIII(setup, []Pattern{pattern}, benchPeriods, horizon)
		if err != nil {
			b.Fatal(err)
		}
		row = rows[0]
	}
	b.ReportMetric(float64(row.CAPPeriodSec), "cap_best_period_s")
	b.ReportMetric(row.CAPMeanWait, "cap_wait_s")
	b.ReportMetric(row.UTILMeanWait, "util_wait_s")
	b.ReportMetric(row.ImprovementPct, "improvement_pct")
}

func BenchmarkTable3PatternI(b *testing.B)   { table3Bench(b, PatternI) }
func BenchmarkTable3PatternII(b *testing.B)  { table3Bench(b, PatternII) }
func BenchmarkTable3PatternIII(b *testing.B) { table3Bench(b, PatternIII) }
func BenchmarkTable3PatternIV(b *testing.B)  { table3Bench(b, PatternIV) }
func BenchmarkTable3Mixed(b *testing.B)      { table3Bench(b, PatternMixed) }

// BenchmarkFig2PeriodSweep regenerates the Figure 2 curve (CAP-BP period
// sweep on the mixed pattern) and the flat UTIL-BP line.
func BenchmarkFig2PeriodSweep(b *testing.B) {
	setup := benchSetup()
	var data Fig2Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = Fig2(setup, benchPeriods, 0) // full 4 h mixed horizon
		if err != nil {
			b.Fatal(err)
		}
	}
	best, err := BestPeriod(data.Points)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(best.PeriodSec), "cap_best_period_s")
	b.ReportMetric(best.MeanWait, "cap_best_wait_s")
	b.ReportMetric(data.UTILWait, "util_wait_s")
}

// timelineBench regenerates a phase timeline at the paper's Figures 3/4
// junction (Pattern I, top-right, 2000 s) and reports its shape.
func timelineBench(b *testing.B, factory Factory) {
	b.Helper()
	setup := benchSetup()
	var tl experiment.JunctionTrace
	for i := 0; i < b.N; i++ {
		var err error
		tl, err = experiment.TraceJunction(setup, scenario.PatternI, factory, figHorizon, 0, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tl.Stats.Transitions), "transitions")
	b.ReportMetric(100*float64(tl.Stats.AmberSlots)/float64(len(tl.Phases)), "amber_pct")
	b.ReportMetric(tl.Stats.MeanGreenRun*tl.DT, "mean_green_s")
	b.ReportMetric(float64(tl.Stats.MaxGreenRun)*tl.DT, "max_green_s")
}

// BenchmarkFig3PhaseTimelineCAP: fixed-length phases (CAP-BP at a
// Pattern-I-competitive period).
func BenchmarkFig3PhaseTimelineCAP(b *testing.B) {
	timelineBench(b, benchSetup().CapBP(38))
}

// BenchmarkFig4PhaseTimelineUTIL: varying-length phases (UTIL-BP).
func BenchmarkFig4PhaseTimelineUTIL(b *testing.B) {
	timelineBench(b, benchSetup().UtilBP())
}

// BenchmarkFig5QueueSeries compares the east-approach queue series at the
// top-right junction for both controllers, the paper's Figure 5.
func BenchmarkFig5QueueSeries(b *testing.B) {
	setup := benchSetup()
	var capMean, utilMean float64
	var capMax, utilMax int
	for i := 0; i < b.N; i++ {
		capTr, err := experiment.TraceJunction(setup, scenario.PatternI, setup.CapBP(38), figHorizon, 0, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		utilTr, err := experiment.TraceJunction(setup, scenario.PatternI, setup.UtilBP(), figHorizon, 0, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		capMean, utilMean = capTr.QueueMean, utilTr.QueueMean
		capMax, utilMax = capTr.QueueMax, utilTr.QueueMax
	}
	b.ReportMetric(capMean, "cap_mean_queue")
	b.ReportMetric(utilMean, "util_mean_queue")
	b.ReportMetric(float64(capMax), "cap_max_queue")
	b.ReportMetric(float64(utilMax), "util_max_queue")
}

// ablationBench compares a UTIL-BP variant against the full algorithm on
// Pattern IV (the pattern with the paper's largest margin), reporting
// how much the removed mechanism was worth.
func ablationBench(b *testing.B, variant core.GainVariant, noKeepPhase bool) {
	b.Helper()
	setup := benchSetup()
	var full, ablated Result
	for i := 0; i < b.N; i++ {
		var err error
		full, err = Run(Spec{Setup: setup, Pattern: PatternIV, Factory: setup.UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
		ablated, err = Run(Spec{Setup: setup, Pattern: PatternIV,
			Factory: setup.UtilBPVariant(variant, noKeepPhase), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(full.Summary.MeanWait, "full_wait_s")
	b.ReportMetric(ablated.Summary.MeanWait, "ablated_wait_s")
	b.ReportMetric(100*(ablated.Summary.MeanWait-full.Summary.MeanWait)/full.Summary.MeanWait, "degradation_pct")
}

// BenchmarkAblationNoWStar removes the W* shift (no service under
// negative pressure difference) — reverting the paper's eq. (6) change.
func BenchmarkAblationNoWStar(b *testing.B) {
	ablationBench(b, core.GainVariant{NoWStarShift: true}, false)
}

// BenchmarkAblationNoKeepPhase removes the keep-phase mechanism
// (Algorithm 1 Case 2), re-selecting every mini-slot.
func BenchmarkAblationNoKeepPhase(b *testing.B) {
	ablationBench(b, core.GainVariant{}, true)
}

// BenchmarkAblationNoSpecialCases removes the alpha/beta scenarios of
// eq. (8).
func BenchmarkAblationNoSpecialCases(b *testing.B) {
	ablationBench(b, core.GainVariant{NoSpecialCases: true}, false)
}

// BenchmarkAblationWholeRoadPressure reverts the per-lane pressure to the
// whole-road pressure of eq. (5) — the paper's §III-A point (i).
func BenchmarkAblationWholeRoadPressure(b *testing.B) {
	ablationBench(b, core.GainVariant{WholeRoadPressure: true}, false)
}

// BenchmarkAblationCountApproaching widens the detector to vehicles still
// rolling toward the stop line (ablation A6 in DESIGN.md).
func BenchmarkAblationCountApproaching(b *testing.B) {
	setup := benchSetup()
	setup.CountApproaching = true
	var full, widened Result
	for i := 0; i < b.N; i++ {
		var err error
		full, err = Run(Spec{Setup: benchSetup(), Pattern: PatternIV, Factory: benchSetup().UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
		widened, err = Run(Spec{Setup: setup, Pattern: PatternIV, Factory: setup.UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(full.Summary.MeanWait, "full_wait_s")
	b.ReportMetric(widened.Summary.MeanWait, "ablated_wait_s")
	b.ReportMetric(100*(widened.Summary.MeanWait-full.Summary.MeanWait)/full.Summary.MeanWait, "degradation_pct")
}

// BenchmarkSensitivityAmber sweeps the transition-phase duration
// Δk ∈ {2,4,6,8} s for UTIL-BP on the mixed pattern.
func BenchmarkSensitivityAmber(b *testing.B) {
	for _, amber := range []int{2, 4, 6, 8} {
		amber := amber
		b.Run(benchName("dk", amber), func(b *testing.B) {
			setup := benchSetup()
			setup.AmberSec = amber
			var res Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Run(Spec{Setup: setup, Pattern: PatternMixed, Factory: setup.UtilBP()})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Summary.MeanWait, "util_wait_s")
		})
	}
}

// BenchmarkExtensionHOL runs the mixed-lane head-of-line-blocking
// extension (paper §IV Q4) against dedicated lanes.
func BenchmarkExtensionHOL(b *testing.B) {
	setup := benchSetup()
	var dedicated, mixed Result
	for i := 0; i < b.N; i++ {
		var err error
		dedicated, err = Run(Spec{Setup: setup, Pattern: PatternII, Factory: setup.UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
		mixed, err = Run(Spec{Setup: setup, Pattern: PatternII, Factory: setup.UtilBP(), DurationSec: benchHorizon, MixedLanes: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dedicated.Summary.MeanWait, "dedicated_wait_s")
	b.ReportMetric(mixed.Summary.MeanWait, "mixed_wait_s")
	b.ReportMetric(100*(mixed.Summary.MeanWait-dedicated.Summary.MeanWait)/dedicated.Summary.MeanWait, "hol_penalty_pct")
}

// BenchmarkBaselineOrigBP measures the eq. (5) baseline on the mixed
// pattern for reference.
func BenchmarkBaselineOrigBP(b *testing.B) {
	setup := benchSetup()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Run(Spec{Setup: setup, Pattern: PatternMixed, Factory: setup.OrigBP(22)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Summary.MeanWait, "orig_wait_s")
}

// BenchmarkBaselineFixedTime measures the pretimed round-robin reference.
func BenchmarkBaselineFixedTime(b *testing.B) {
	setup := benchSetup()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Run(Spec{Setup: setup, Pattern: PatternMixed, Factory: setup.FixedTime(22)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Summary.MeanWait, "fixed_wait_s")
}

// BenchmarkStabilityMargin probes the largest stable demand scaling for
// UTIL-BP vs CAP-BP on Pattern II — the stability/utilization trade-off
// instrument (paper §VI future work).
func BenchmarkStabilityMargin(b *testing.B) {
	setup := benchSetup()
	var util, capRes stability.Result
	for i := 0; i < b.N; i++ {
		var err error
		util, err = stability.Probe(stability.Options{
			Setup: setup, Pattern: PatternII, Factory: setup.UtilBP(),
			HorizonSec: 900, Iterations: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		capRes, err = stability.Probe(stability.Options{
			Setup: setup, Pattern: PatternII, Factory: setup.CapBP(22),
			HorizonSec: 900, Iterations: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(util.CriticalScale, "util_critical_scale")
	b.ReportMetric(capRes.CriticalScale, "cap_critical_scale")
}

// BenchmarkSensitivityBetaOrder compares the paper's beta < alpha ordering
// against the reversed one the paper mentions as a policy option
// ("beta can also be larger than alpha"), on the capacity-stressed
// Pattern I.
func BenchmarkSensitivityBetaOrder(b *testing.B) {
	paperOrder := benchSetup() // alpha=-1, beta=-2
	reversed := benchSetup()
	reversed.Alpha = -2
	reversed.Beta = -1
	var paperRes, revRes Result
	for i := 0; i < b.N; i++ {
		var err error
		paperRes, err = Run(Spec{Setup: paperOrder, Pattern: PatternI, Factory: paperOrder.UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
		revRes, err = Run(Spec{Setup: reversed, Pattern: PatternI, Factory: reversed.UtilBP(), DurationSec: benchHorizon})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(paperRes.Summary.MeanWait, "beta_lt_alpha_wait_s")
	b.ReportMetric(revRes.Summary.MeanWait, "alpha_lt_beta_wait_s")
}

// BenchmarkEngineSteps measures raw simulator throughput: mini-slots per
// second on the 3×3 network under UTIL-BP (performance, not fidelity).
// Arrivals stay on; since PR 2 the spawn path allocates nothing either
// (vehicle.Plan values, pre-sized arena), so the only residual
// allocations are amortized arena growth past the pre-sized horizon.
func BenchmarkEngineSteps(b *testing.B) {
	setup := benchSetup()
	engine, _, _, err := experiment.Prepare(Spec{Setup: setup, Pattern: PatternI, Factory: setup.UtilBP()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	engine.Run(b.N)
}

// BenchmarkStepOnce measures the full mini-slot including the spawn
// path: the engine is warmed up under Pattern I demand until the queues'
// link store and the pre-sized vehicle arena have reached their
// working-set size, then the same seed is replayed in horizon-sized
// chunks via Engine.Reset so arrivals keep flowing for any -benchtime
// without the arena growing. The per-chunk rewind itself runs outside the timer —
// Engine.Reset rebuilds the (stateful) controllers through the factory,
// which is real but amortized work, not step cost. The contract —
// enforced by TestSpawnPathAllocs and TestStepOnceSteadyStateAllocs and
// gated in CI — is exactly 0 B/op and 0 allocs/op with traffic flowing
// and vehicles spawning every measured step.
func BenchmarkStepOnce(b *testing.B) { stepOnceBench(b, benchSetup(), nil, nil) }

// BenchmarkStepOnceSensed is BenchmarkStepOnce with the sensing layer
// explicitly engaged: the sensing.Perfect sensor installed, so every
// mini-slot runs the dirty-link refresh AND the per-link sensor copy
// into the separate observation array. Gated in CI at 0 B/op and
// 0 allocs/op alongside the sensor-free benchmark — the sensing layer
// must not reintroduce heap traffic on the hot path.
func BenchmarkStepOnceSensed(b *testing.B) { stepOnceBench(b, benchSetup(), nil, sensing.Perfect{}) }

// BenchmarkStepOnceSensedCV is BenchmarkStepOnce under 30 %
// connected-vehicle penetration (cv:0.3), the sensor of zoo-downtown's
// sensed cells: every mini-slot runs the connected-vehicle kernel over
// the changed links. Gated in CI at 0 B/op and 0 allocs/op — the
// kernel's scratch is fixed at construction, so no step allocates
// however many trials it draws.
func BenchmarkStepOnceSensedCV(b *testing.B) {
	sensor, err := sensing.CV(0.3).New()
	if err != nil {
		b.Fatal(err)
	}
	stepOnceBench(b, benchSetup(), nil, sensor)
}

// BenchmarkStepOnceSensedLoop is BenchmarkStepOnce under a stop-bar
// loop detector that misses 5 % of its events, behind a blank outage
// window on the four approaches of the central junction (steps
// 400–1000 of the 2 000-step horizon): every mini-slot runs the
// outage wrapper's forwarding list and the detector's count
// integration over the changed links, and inside the window the
// wrapper blanks the covered links. No other gated benchmark and no
// e2ebench workload runs either writer. Gated in CI at 0 B/op and
// 0 allocs/op.
func BenchmarkStepOnceSensedLoop(b *testing.B) {
	setup := benchSetup()
	setup.Sensor = sensing.Spec{Kind: sensing.KindLoop, FailProb: 0.05}
	for _, road := range []string{"J01->J11", "J10->J11", "J12->J11", "J21->J11"} {
		setup.Events = append(setup.Events, event.Outage(road, 400, 600, sensing.OutageBlank))
	}
	stepOnceBench(b, setup, nil, nil)
}

// BenchmarkStepOnceDisrupted is BenchmarkStepOnce with an armed
// disruption schedule: a mid-run capacity incident, a dark junction and
// a demand surge (DESIGN.md §12). Gated in CI at 0 B/op and
// 0 allocs/op alongside its siblings — applying and reverting scheduled
// transitions must not reintroduce heap traffic on the hot path (queues
// own no storage, so a clamped capacity resizes nothing; the schedule
// is immutable and replayed by cursor).
func BenchmarkStepOnceDisrupted(b *testing.B) {
	setup, err := benchSetup().WithCentralIncident(400, 600, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	setup.Events = append(setup.Events,
		event.Dark("J00", 800, 300),
		event.Surge(300, 900, 1.3),
	)
	stepOnceBench(b, setup, nil, nil)
}

// BenchmarkStepOnceZoo is BenchmarkStepOnce across the rest of the
// controller zoo (DESIGN.md §13): MaxPressure and BP-EST on the batched
// plane, the stateful actuated gap-out through the per-junction loop.
// Every family is CI-gated at 0 B/op and 0 allocs/op alongside the
// UTIL-BP siblings — controller state (weight scratch, per-link turn-ratio
// estimators, gap timers) must be pre-sized at construction, never grown
// on the hot path.
func BenchmarkStepOnceZoo(b *testing.B) {
	for _, f := range []struct {
		name string
		mk   func(Setup) signal.Factory
	}{
		{"MAXPRESSURE", func(s Setup) signal.Factory { return s.MaxPressure(0) }},
		{"GAPOUT", func(s Setup) signal.Factory { return s.GapOut(0, 0, 0) }},
		{"BP-EST", func(s Setup) signal.Factory { return s.EstimatedBP(0) }},
	} {
		f := f
		b.Run(f.name, func(b *testing.B) {
			setup := benchSetup()
			stepOnceBench(b, setup, f.mk(setup), nil)
		})
	}
}

// BenchmarkStepOnceInstrumented is the warm mini-slot with the
// telemetry plane engaged (DESIGN.md §15): a telemetry.Net recorder
// installed on the city-grid workload (256 junctions), so every
// measured step runs the engine's per-step flush into the ring buffers
// on top of the full simulation step. Gated in CI at 0 B/op and
// 0 allocs/op alongside its siblings — the recording path writes only
// into storage pre-sized at Arm time (the zero-alloc telemetry
// contract). No e2ebench workload installs a recorder, so this
// benchmark's ns/op is the only reading of the recording path's cost.
func BenchmarkStepOnceInstrumented(b *testing.B) {
	const horizon = 2000
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		b.Fatal("city-grid workload not registered")
	}
	setup := w.Setup
	setup.Seed = 1
	built, err := setup.Build(w.Pattern)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      setup.UtilBP(),
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Events:           built.Events,
		ExpectedVehicles: built.ExpectedVehicles(horizon),
	})
	if err != nil {
		b.Fatal(err)
	}
	rec, err := telemetry.NewRecorder(telemetry.Net(), horizon)
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.InstallTelemetry(rec); err != nil {
		b.Fatal(err)
	}
	engine.Run(horizon) // grow the working set over one full horizon
	if err := engine.Reset(setup.Seed); err != nil {
		b.Fatal(err)
	}
	used := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if used == horizon {
			b.StopTimer()
			if err := engine.Reset(setup.Seed); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			used = 0
		}
		engine.Run(1)
		used++
	}
}

// stepHorizon is the warm-and-replay horizon of the step benchmarks.
const stepHorizon = 2000

// stepOnceBench is the shared warm-and-replay body of the step
// benchmarks; it returns the engine with the timer still running. A nil
// factory runs the paper's UTIL-BP; a nil sensor runs the sensor the
// setup builds (none for a perfect spec without outages).
func stepOnceBench(b *testing.B, setup Setup, factory signal.Factory, sensor sensing.Sensor) *sim.Engine {
	b.Helper()
	if factory == nil {
		factory = setup.UtilBP()
	}
	built, err := setup.Build(scenario.PatternI)
	if err != nil {
		b.Fatal(err)
	}
	if sensor != nil {
		sensor.Reseed(setup.Seed)
	} else {
		sensor = built.Sensor
	}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      factory,
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		Sensor:           sensor,
		Control:          setup.Control,
		Events:           built.Events,
		ExpectedVehicles: built.ExpectedVehicles(stepHorizon),
	})
	if err != nil {
		b.Fatal(err)
	}
	engine.Run(stepHorizon) // grow the working set over one full horizon
	if err := engine.Reset(setup.Seed); err != nil {
		b.Fatal(err)
	}
	used := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if used == stepHorizon {
			// Rewind and replay the identical horizon; the replay never
			// exceeds the grown capacity.
			b.StopTimer()
			if err := engine.Reset(setup.Seed); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			used = 0
		}
		engine.Run(1)
		used++
	}
	return engine
}

// reportSubstep stops the timer, replays the benchmark's horizon traced
// (sim.Engine.RunTraced) and reports one substep's mean wall time per
// step (substep indexes sim.SubstepNames) as the named metric.
func reportSubstep(b *testing.B, engine *sim.Engine, seed uint64, substep int, metric string) {
	b.StopTimer()
	if err := engine.Reset(seed); err != nil {
		b.Fatal(err)
	}
	tl := sim.NewTraceLog(stepHorizon)
	engine.RunTraced(stepHorizon, tl)
	var sum int64
	for _, d := range tl.Spans[substep] {
		sum += d.Nanoseconds()
	}
	b.ReportMetric(float64(sum)/stepHorizon, metric)
}

// BenchmarkControlPhasePerJunction and BenchmarkControlPhaseBatched
// time the full warm mini-slot (same warm-and-replay discipline as
// BenchmarkStepOnce, 0 B/op / 0 allocs/op CI-gated) with the control
// substep dispatched per-junction vs through the batched control plane
// (DESIGN.md §11). The control_ns_per_step metric attributes the
// control substep's share from a traced replay of the identical
// horizon, so the batched plane's win is visible next to the headline
// ns/op.
func BenchmarkControlPhasePerJunction(b *testing.B) { controlPhaseBench(b, signal.ControlPerJunction) }

// BenchmarkControlPhaseBatched is the batched-dispatch counterpart of
// BenchmarkControlPhasePerJunction.
func BenchmarkControlPhaseBatched(b *testing.B) { controlPhaseBench(b, signal.ControlBatched) }

// controlPhaseBench is the shared body of the ControlPhase benchmarks.
func controlPhaseBench(b *testing.B, mode signal.ControlMode) {
	setup := benchSetup()
	setup.Control = mode
	reportSubstep(b, stepOnceBench(b, setup, nil, nil), setup.Seed, 2, "control_ns_per_step")
}

// BenchmarkStepOnceServeBatched times the full warm mini-slot (0 B/op /
// 0 allocs/op CI-gated) and reports the serve substep's share of it —
// the batched serve plane with its idle/sub-threshold skips (DESIGN.md
// §16) — as serve_ns_per_step, from a traced replay of the identical
// horizon.
func BenchmarkStepOnceServeBatched(b *testing.B) {
	setup := benchSetup()
	reportSubstep(b, stepOnceBench(b, setup, nil, nil), setup.Seed, 3, "serve_ns_per_step")
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "=" + digits[v:v+1]
	}
	return prefix + "=" + digits[v/10:v/10+1] + digits[v%10:v%10+1]
}

// BenchmarkWeighCityGrid times UTIL-BP's weight sweep alone: every
// junction's Weigh over its window of the link table and road rows
// captured from a city-grid run (16×16, Pattern II, seed 1) at six
// steps of its loaded hour, one capture per iteration in turn. It
// reports ns per link weighed. PERF.md records it; it is not gated.
func BenchmarkWeighCityGrid(b *testing.B) {
	rows, links, ctrls, off := cityGridRows(b)
	w := make([]float64, off[len(off)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)]
		for j, c := range ctrls {
			c.Weigh(links[off[j]:off[j+1]], r, w[off[j]:off[j+1]])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w)), "ns/link")
}

// cityGridRows runs city-grid for an hour under per-junction UTIL-BP
// and returns the road rows at steps 599, 1199, …, 3599, one copy per
// step, and the link table, together with a UTIL-BP controller per
// junction and the table offset of each junction's links.
func cityGridRows(b *testing.B) ([][]signal.Row, []signal.Link, []signal.Weighted, []int) {
	b.Helper()
	const every, n = 600, 6
	w, ok := scenario.WorkloadByName("city-grid")
	if !ok {
		b.Fatal("city-grid workload not registered")
	}
	setup := w.Setup
	setup.Seed = 1
	built, err := setup.Build(w.Pattern)
	if err != nil {
		b.Fatal(err)
	}
	c := &obsCapture{inner: setup.UtilBP(), every: every, off: []int{0}, rows: make([][]signal.Row, n)}
	engine, err := sim.New(sim.Config{
		Net:              built.Grid.Network,
		Controllers:      c,
		Demand:           built.Demand,
		Router:           built.Router,
		Routes:           built.Routes,
		ExpectedVehicles: built.ExpectedVehicles(every * n),
	})
	if err != nil {
		b.Fatal(err)
	}
	c.links = make([]signal.Link, c.off[len(c.off)-1])
	engine.Run(every * n)
	for k, rows := range c.rows {
		queued := 0
		for i := range rows {
			queued += int(rows[i].Total)
		}
		if queued == 0 {
			b.Fatalf("capture %d holds no queued vehicle", k)
		}
	}
	ctrls := make([]signal.Weighted, len(c.infos))
	for j, info := range c.infos {
		ctrl, err := setup.UtilBP().New(info)
		if err != nil {
			b.Fatal(err)
		}
		ctrls[j] = ctrl.(signal.Weighted)
	}
	return c.rows, c.links, ctrls, c.off
}

// obsCapture is a per-junction signal.Factory whose controllers decide
// as inner's do and, at every step k with k%every == every-1, copy
// their window of the link table into links, at their junction's
// offset; the first junction also copies the rows into rows[k/every].
type obsCapture struct {
	inner signal.Factory
	every int
	infos []signal.JunctionInfo
	off   []int
	links []signal.Link
	rows  [][]signal.Row
}

// Name implements signal.Factory.
func (o *obsCapture) Name() string { return o.inner.Name() }

// New implements signal.Factory.
func (o *obsCapture) New(info signal.JunctionInfo) (signal.Controller, error) {
	c, err := o.inner.New(info)
	if err != nil {
		return nil, err
	}
	j := len(o.infos)
	o.infos = append(o.infos, info)
	o.off = append(o.off, o.off[j]+info.NumLinks)
	return &capturingController{Controller: c, o: o, lo: o.off[j]}, nil
}

// capturingController is one obsCapture junction.
type capturingController struct {
	signal.Controller
	o  *obsCapture
	lo int
}

// Decide implements signal.Controller.
func (c *capturingController) Decide(obs *signal.Obs) signal.Phase {
	if k := obs.Step / c.o.every; obs.Step%c.o.every == c.o.every-1 && k < len(c.o.rows) {
		copy(c.o.links[c.lo:], obs.Links)
		if c.lo == 0 {
			c.o.rows[k] = append([]signal.Row(nil), obs.Rows...)
		}
	}
	return c.Controller.Decide(obs)
}
