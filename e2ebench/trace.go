package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"utilbp/internal/network"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// span is one timed call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`     // cell or replay the span belongs to, -1 outside any
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration less the time child spans cover
}

// tracer records spans in memory for the traced run; write saves them
// when the run ends. The calls it wraps run on one goroutine, so child
// spans nest and never overlap. A nil tracer runs the calls untimed.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id, parent := len(t.spans), -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.Self += s.End - s.Start
	if parent >= 0 {
		t.spans[parent].Self -= s.End - s.Start
	}
}

// setOp marks the spans that follow as belonging to cell or replay i.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// self returns the self times, in ns, of the spans named name.
func (t *tracer) self(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Self))
		}
	}
	return out
}

// medianSelf is the median self time of the spans named name, 0 if none.
func (t *tracer) medianSelf(name string) float64 {
	if xs := t.self(name); len(xs) > 0 {
		return median(xs)
	}
	return 0
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseCounter counts junction decisions and phase switches through the
// engine's Phase hook.
type phaseCounter struct {
	// last is each node's latest phase. Its zero value is Amber, the
	// phase every junction holds after a rewind.
	last                []signal.Phase
	decisions, switches int
}

// countPhases registers a fresh counter on e. Rewinds discard hooks, so
// call it after the rewind.
func countPhases(e *sim.Engine) *phaseCounter {
	pc := &phaseCounter{last: make([]signal.Phase, len(e.Network().Nodes))}
	e.AddHooks(sim.Hooks{Phase: func(j network.NodeID, _ int, p signal.Phase) {
		pc.decisions++
		if p != pc.last[j] {
			pc.switches++
			pc.last[j] = p
		}
	}})
	return pc
}

// controlLayers are the controller families' packages, each reported as
// <layer>.control_ns.
var controlLayers = []string{"core", "bp", "bpest", "maxpressure", "gapout", "fixedtime"}

// layerUnits lists every per-layer metric with its unit, in report order.
var layerUnits = [][2]string{
	{"scenario.build_ms", "ms"},
	{"scenario.instantiate_us", "us"},
	{"sim.new_ms", "ms"},
	{"sim.engine_mb", "MB"},
	{"sim.reset_us", "us"},
	{"sim.events_ns", "ns/step"},
	{"sim.sense_ns", "ns/step"},
	{"sim.control_ns", "ns/step"},
	{"sim.serve_ns", "ns/step"},
	{"sim.travel_ns", "ns/step"},
	{"sim.arrivals_ns", "ns/step"},
	{"sim.unattributed_ns", "ns/step"},
	{"sim.spawned", "count"},
	{"sim.served", "count"},
	{"sim.exited", "count"},
	{"signal.decisions", "count"},
	{"signal.switches", "count"},
	{"signal.switch_ratio", "ratio"},
	{"core.control_ns", "ns/step"},
	{"bp.control_ns", "ns/step"},
	{"bpest.control_ns", "ns/step"},
	{"maxpressure.control_ns", "ns/step"},
	{"gapout.control_ns", "ns/step"},
	{"fixedtime.control_ns", "ns/step"},
	{"sensing.sense_ns", "ns/step"},
	{"sim.finalize_us", "us"},
	{"sim.invariants_us", "us"},
	{"stats.summarize_us", "us"},
	{"experiment.cells", "count"},
	{"experiment.engines", "count"},
	{"experiment.cell_p50_ms", "ms"},
	{"experiment.cell_max_ms", "ms"},
	{"experiment.busy_s", "s"},
	{"experiment.pool_speedup", "x"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.setup_alloc_mb", "MB"},
	{"runtime.setup_mallocs", "count"},
	{"runtime.setup_gc_cycles", "count"},
	{"runtime.setup_gc_pause_ms", "ms"},
	{"host.clock_ns", "ns"},
	{"host.calib_us", "us"},
	{"trace.overhead_pct", "%"},
}

// tracedPass sums what one traced pass recorded: its traced stepping,
// split by substep, by controller layer and by sensing, and the same
// work's untraced cost from the matching untraced pass.
type tracedPass struct {
	steps               int
	sub                 [sim.NumSubsteps]float64 // ns
	control             map[string][2]float64    // layer → ns, steps
	sense               [2][2]float64            // perfect, sensed → ns, steps
	decisions, switches int
	totals              sim.Totals
	untracedRunNS       float64 // the untraced pass's stepping, ns
	tracedWall          float64 // s
	untracedWall        float64 // s
}

func (p *tracedPass) add(o *cellOut, steps int, layer string, sensed bool) {
	if p.control == nil {
		p.control = map[string][2]float64{}
	}
	p.steps += steps
	for k, d := range o.sub {
		p.sub[k] += float64(d)
	}
	c := p.control[layer]
	p.control[layer] = [2]float64{c[0] + float64(o.sub[2]), c[1] + float64(steps)}
	i := 0
	if sensed {
		i = 1
	}
	p.sense[i][0] += float64(o.sub[1])
	p.sense[i][1] += float64(steps)
	p.decisions += o.decisions
	p.switches += o.switches
	p.totals.Spawned += o.totals.Spawned
	p.totals.Served += o.totals.Served
	p.totals.Exited += o.totals.Exited
}

// metrics turns the pass into per-layer values. Each substep span of
// RunTraced closes with one of its seven clock reads per step; clock,
// the cost of one read, comes off each substep, and what the corrected
// substeps leave of the untraced step is sim.unattributed_ns.
func (p *tracedPass) metrics(clock float64) map[string]float64 {
	m := map[string]float64{}
	steps := float64(p.steps)
	attributed := 0.0
	for k, name := range sim.SubstepNames {
		v := p.sub[k]/steps - clock
		m["sim."+name+"_ns"] = v
		attributed += v
	}
	m["sim.unattributed_ns"] = p.untracedRunNS/steps - attributed
	for _, l := range controlLayers {
		if c := p.control[l]; c[1] > 0 {
			m[l+".control_ns"] = c[0]/c[1] - clock
		}
	}
	if p.sense[1][1] > 0 {
		m["sensing.sense_ns"] = p.sense[1][0]/p.sense[1][1] - p.sense[0][0]/p.sense[0][1]
	}
	m["sim.spawned"] = float64(p.totals.Spawned)
	m["sim.served"] = float64(p.totals.Served)
	m["sim.exited"] = float64(p.totals.Exited)
	m["signal.decisions"] = float64(p.decisions)
	m["signal.switches"] = float64(p.switches)
	m["signal.switch_ratio"] = float64(p.switches) / float64(p.decisions)
	m["trace.overhead_pct"] = 100 * (p.tracedWall - p.untracedWall) / p.untracedWall
	return m
}

// putMem records a runtime counter delta under the given metric prefix.
func putMem(m map[string]float64, prefix string, d memSample) {
	m[prefix+"alloc_mb"] = d.alloc / (1 << 20)
	m[prefix+"mallocs"] = d.mallocs
	m[prefix+"gc_cycles"] = d.gcs
	m[prefix+"gc_pause_ms"] = d.pauseNS / 1e6
}

// putLayers emits every per-layer metric: the medians over rounds of the
// per-round values, then the set-up values, then the span medians. A
// layer the workload never calls reads 0.
func (b *bench) putLayers(rounds []map[string]float64, once map[string]float64) {
	vals := map[string]float64{}
	for _, lu := range layerUnits {
		var xs []float64
		for _, r := range rounds {
			if v, ok := r[lu[0]]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			vals[lu[0]] = median(xs)
		}
	}
	for k, v := range once {
		vals[k] = v
	}
	t := b.tr
	vals["scenario.build_ms"] = t.medianSelf("scenario.Setup.BuildArtifact") / 1e6
	vals["scenario.instantiate_us"] = t.medianSelf("scenario.Artifact.Instantiate") / 1e3
	vals["sim.new_ms"] = t.medianSelf("sim.New") / 1e6
	vals["sim.reset_us"] = (t.medianSelf("sim.Engine.ResetWith") + t.medianSelf("sim.Engine.Reset")) / 1e3
	vals["sim.finalize_us"] = t.medianSelf("sim.Engine.FinalizeWaits") / 1e3
	vals["sim.invariants_us"] = t.medianSelf("sim.Engine.CheckInvariants") / 1e3
	vals["stats.summarize_us"] = t.medianSelf("stats.SummarizeArena") / 1e3
	for _, lu := range layerUnits {
		b.put(lu[0], vals[lu[0]], lu[1])
	}
}
