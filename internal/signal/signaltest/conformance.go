// Package signaltest is a reusable conformance suite for
// signal.Controller implementations: a table of contract invariants —
// in-range decisions, replay determinism, amber insertion between
// distinct greens, minimum green holding, max-green preemption,
// factory independence, reset-rebuild coldness (Engine.Reset rebuilds
// controllers through the factory), batched-dispatch equivalence,
// quiet-skip equivalence (signal.Batch.Quiet), stale-window
// equivalence (a signal.Weighted rule weighs what it reads), and
// dark-mode fallback/recovery (the engine-side override of DESIGN.md
// §12) — driven over a set of scripted observation scenarios.
// Controller packages (internal/core, internal/bp, internal/fixedtime,
// internal/maxpressure, internal/gapout, internal/bpest) run their
// factories through Run, so third-party controllers get the engine's
// expectations as an executable checklist instead of prose (DESIGN.md
// §6, §11, §13).
package signaltest

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"utilbp/internal/signal"
	"utilbp/internal/snap"
)

// Case describes one controller family under conformance test.
type Case struct {
	// Name labels the subtests.
	Name string
	// Factory is the implementation under test.
	Factory signal.Factory
	// AmberSteps is the transition duration the factory was configured
	// with: the suite requires at least that many consecutive amber
	// decisions between two distinct green phases. Zero skips the
	// amber-insertion invariant (the controller may switch directly).
	AmberSteps int
	// MinGreenSteps is the guaranteed green hold: no completed green run
	// may be shorter. Values < 2 skip the check (every run is at least
	// one slot by construction).
	MinGreenSteps int
	// MaxGreenSteps is the preemption bound: no green run, completed or
	// in progress, may be longer. Zero skips the check (the family has
	// no max-green timer).
	MaxGreenSteps int
}

// testJunction returns the synthetic junction the scripts are written
// against: four links in two phases, the paper's W* and a 1 s mini-slot.
func testJunction(label string) signal.JunctionInfo {
	return signal.JunctionInfo{
		Label:    label,
		Phases:   [][]int{{0, 1}, {2, 3}},
		NumLinks: 4,
		WStar:    120,
		DeltaT:   1,
	}
}

// script drives one junction's observation trajectory: fill overwrites
// the dynamic fields of the scripted link observations for a step.
// Static fields (capacities, Mu) are preset by staticFill and must not
// be touched. A view puts them into the pair layout controllers read.
type script struct {
	name  string
	steps int
	fill  func(step int, links []LinkObs)
}

// staticFill sets the immutable observation fields the engine would fill
// at construction.
func staticFill(links []LinkObs) {
	for i := range links {
		links[i] = LinkObs{InCapacity: 120, OutCapacity: 120, Mu: 0.5}
	}
}

// view holds a junction's scripted links and the link table and rows
// they are put into.
type view struct {
	links []LinkObs
	table []signal.Link
	rows  []signal.Row
}

// newView returns a view of n statically filled links.
func newView(n int) *view {
	v := &view{links: make([]LinkObs, n)}
	staticFill(v.links)
	v.table, v.rows = Pairs(v.links...)
	return v
}

// put writes the scripted links into the table and rows.
func (v *view) put() {
	for gl := range v.links {
		Put(v.table, v.rows, gl, &v.links[gl])
	}
}

// setQueues writes a link's dynamic state keeping the cross-field
// relations the engine maintains (ApproachQueue ≥ Queue,
// OutOccupancy ≥ OutQueue, and OutQueue resolved into per-movement
// OutTurnQueue entries summing to it). OutTurnJoins is left for the
// script to shape — it must be monotone in the step for engine
// fidelity, which a fill that never touches it (frozen at zero)
// trivially satisfies.
func setQueues(l *LinkObs, queue, inTransit, outQueue, outExtra int32) {
	l.Queue = queue
	l.InTransit = inTransit
	l.ApproachQueue = queue + inTransit
	l.OutQueue = outQueue
	l.OutOccupancy = outQueue + outExtra
	third := outQueue / 3
	l.OutTurnQueue = [signal.NumTurns]int32{outQueue - 2*third, third, third}
}

// joins returns a link's cumulative per-movement join counters.
func joins(left, straight, right int) [signal.NumTurns]int32 {
	return [signal.NumTurns]int32{int32(left), int32(straight), int32(right)}
}

// splitmix is a tiny deterministic PRNG for the noisy script; it must
// not depend on internal/rng so the suite stays a leaf package.
func splitmix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scripts returns the scripted scenarios every invariant runs over.
func scripts() []script {
	return []script{
		{"empty", 160, func(step int, links []LinkObs) {
			for i := range links {
				setQueues(&links[i], 0, 0, 0, 0)
			}
		}},
		{"steady-bias", 240, func(step int, links []LinkObs) {
			// Phase 1's links carry sustained load; phase 2 stays light.
			// Two links see their downstream departure counters advance
			// at different (slow) cadences, so estimator-carrying
			// families fold joins on some rounds and not on others,
			// without every link changing every round.
			setQueues(&links[0], 14, 2, 3, 1)
			setQueues(&links[1], 9, 1, 2, 0)
			setQueues(&links[2], 2, 0, 4, 1)
			setQueues(&links[3], 1, 0, 5, 2)
			links[0].OutTurnJoins = joins(step/3, step/5, step/11)
			links[2].OutTurnJoins = joins(step/4, 0, step/6)
		}},
		{"alternating", 320, func(step int, links []LinkObs) {
			// The heavy side flips every 40 slots, forcing transitions.
			heavy, light := 0, 2
			if (step/40)%2 == 1 {
				heavy, light = 2, 0
			}
			setQueues(&links[heavy], 18, 3, 2, 1)
			setQueues(&links[heavy+1], 12, 2, 3, 0)
			setQueues(&links[light], 1, 0, 6, 2)
			setQueues(&links[light+1], 0, 1, 4, 1)
			links[1].OutTurnJoins = joins(step/2, step/8, 0)
		}},
		{"downstream-full", 200, func(step int, links []LinkObs) {
			// Phase 1's outgoing roads sit at capacity (the eq. 8 beta
			// scenario); phase 2 is serviceable.
			setQueues(&links[0], 16, 1, 40, 80)
			setQueues(&links[1], 11, 0, 35, 85)
			setQueues(&links[2], 6, 1, 3, 1)
			setQueues(&links[3], 4, 0, 2, 0)
		}},
		{"noisy", 400, func(step int, links []LinkObs) {
			state := uint64(step)*2654435761 + 12345
			for i := range links {
				q := int32(splitmix(&state) % 20)
				it := int32(splitmix(&state) % 6)
				oq := int32(splitmix(&state) % 15)
				ox := int32(splitmix(&state) % 30)
				setQueues(&links[i], q, it, oq, ox)
				// Monotone departure counters with per-link cadence.
				links[i].OutTurnJoins = joins(step*(i+1)/4, step/3, step/5)
			}
		}},
		{"burst-gap", 260, func(step int, links []LinkObs) {
			// Phase 1 sees 15-slot demand bursts separated by 35 quiet
			// slots — the actuated gap-out pattern: greens extend under
			// the burst and gap out after it; phase 2 never presents
			// demand, so only the min-green and gap timers govern it.
			q := int32(0)
			if step%50 < 15 {
				q = 12
			}
			setQueues(&links[0], q, q/4, 2, 1)
			setQueues(&links[1], q/2, 0, 1, 0)
			setQueues(&links[2], 0, 0, 3, 1)
			setQueues(&links[3], 0, 0, 2, 0)
			links[0].OutTurnJoins = joins(step/2, step/7, step/13)
		}},
		{frozenScript, 200, func(step int, links []LinkObs) {
			// Frozen stretches, where the engine offers Quiet: an empty
			// junction before step 60, a short phase 2 load that turns
			// phase 2 green, then a steady phase 1 load frozen from step
			// 70. With MaxPressure's defaults phase 2 turns green at 65,
			// so its 10-step minimum green ends at 75, on a quiet step
			// where the selection must still run. From step 150 both
			// phases hold load: eq. (12) keeps a phase 1 green although
			// phase 2's total gain is higher, so quiet steps keep a
			// green that a re-selection alone would leave.
			var q0, q1, q2 int32
			switch {
			case step >= 60 && step < 70:
				q2 = 10
			case step >= 70 && step < 150:
				q0, q1 = 12, 8
			case step >= 150:
				q0, q2 = 12, 10
			}
			setQueues(&links[0], q0, 0, 0, 0)
			setQueues(&links[1], q1, 0, 0, 0)
			setQueues(&links[2], q2, 0, 0, 0)
			setQueues(&links[3], q2, 0, 0, 0)
		}},
	}
}

// frozenScript names the script whose frozen stretches must offer
// Quiet to every batch-capable family.
const frozenScript = "frozen"

// driveDark runs a script with the engine's dark-mode override applied
// between onset and the policy's release boundary (DESIGN.md §12): the
// controller keeps deciding every slot, but inside the window its
// decision is discarded and the degraded policy's phase actuates — and
// feeds back as the observed Current — exactly as sim.Engine does at
// its shared actuation point. The returned trace is the applied one.
func driveDark(t *testing.T, f signal.Factory, info signal.JunctionInfo, sc script, pol signal.DarkPolicy, onset, end int) []signal.Phase {
	t.Helper()
	ctrl, err := f.New(info)
	if err != nil {
		t.Fatalf("factory %s: New: %v", f.Name(), err)
	}
	release := pol.ReleaseStep(onset, end)
	v := newView(info.NumLinks)
	obs := signal.Obs{Links: v.table, Rows: v.rows}
	out := make([]signal.Phase, sc.steps)
	cur := signal.Amber
	for k := 0; k < sc.steps; k++ {
		sc.fill(k, v.links)
		v.put()
		obs.Step = k
		obs.Time = float64(k) * info.DeltaT
		obs.Current = cur
		p := ctrl.Decide(&obs)
		if k >= onset && k < release {
			p = pol.Phase(k-onset, info.NumPhases())
		}
		out[k] = p
		cur = p
	}
	return out
}

// checkMinGreenAcrossDark is checkMinGreen with the two dark-mode
// exemptions: the green in progress at onset is truncated by the
// override (the engine cuts it to all-red unconditionally — safety
// outranks the hold), and the first green after release may run short
// because the controller's hold state advanced against the overridden
// phases. Every other completed run, including the fixed-time greens
// inside the window, must still satisfy the hold.
func checkMinGreenAcrossDark(t *testing.T, trace []signal.Phase, minGreen, onset, release int) {
	t.Helper()
	run, start := 0, 0
	cur := signal.Amber
	firstResumed := true
	for k, p := range trace {
		if p == cur {
			run++
			continue
		}
		if cur != signal.Amber && run < minGreen {
			truncated := start < onset && k >= onset
			first := start >= release && firstResumed
			if !truncated && !first {
				t.Fatalf("step %d: green %v held only %d slots, want >= %d", k, cur, run, minGreen)
			}
		}
		if cur != signal.Amber && start >= release {
			firstResumed = false
		}
		cur, run, start = p, 1, k
	}
}

// drive runs a fresh controller from the factory over a script and
// returns the decision trace. The observed Current feeds back the
// previous decision, exactly like the engine.
func drive(t *testing.T, f signal.Factory, info signal.JunctionInfo, sc script) []signal.Phase {
	t.Helper()
	ctrl, err := f.New(info)
	if err != nil {
		t.Fatalf("factory %s: New: %v", f.Name(), err)
	}
	v := newView(info.NumLinks)
	obs := signal.Obs{Links: v.table, Rows: v.rows}
	out := make([]signal.Phase, sc.steps)
	cur := signal.Amber
	for k := 0; k < sc.steps; k++ {
		sc.fill(k, v.links)
		v.put()
		obs.Step = k
		obs.Time = float64(k) * info.DeltaT
		obs.Current = cur
		p := ctrl.Decide(&obs)
		out[k] = p
		cur = p
	}
	return out
}

// driveBatched runs the same script through the signal.Batched adapter
// over a single-junction batch maintained like the engine's.
func driveBatched(t *testing.T, f signal.Factory, info signal.JunctionInfo, sc script) []signal.Phase {
	t.Helper()
	ctrl, err := f.New(info)
	if err != nil {
		t.Fatalf("factory %s: New: %v", f.Name(), err)
	}
	traces, _ := driveBatchController(t, signal.Batched(ctrl), []signal.JunctionInfo{info}, []script{sc}, true, nil)
	return traces[0]
}

// driveBatchController feeds per-junction scripts to a BatchController,
// maintaining the batch exactly as the engine does: Current feeds back
// the previous decisions and Decided is pre-filled with Amber. With
// quiet set, Quiet flags each junction that last round decided its
// Current green and none of whose links changed since — the engine's
// settled && !ctrlDirty, with the junction's own links standing in for
// its roads. With quiet unset Quiet stays nil, "nothing quiet". after,
// when non-nil, runs after each round with its step. It returns the
// traces and the number of junction-rounds offered as quiet.
func driveBatchController(t *testing.T, bc signal.BatchController, infos []signal.JunctionInfo, scs []script, quiet bool, after func(step int)) ([][]signal.Phase, int) {
	t.Helper()
	if len(infos) != len(scs) {
		t.Fatalf("driveBatchController: %d infos vs %d scripts", len(infos), len(scs))
	}
	total := 0
	off := []int32{0}
	steps := 0
	for i, info := range infos {
		total += info.NumLinks
		off = append(off, int32(total))
		if scs[i].steps > steps {
			steps = scs[i].steps
		}
	}
	v := newView(total)
	b := signal.Batch{
		Rows:    v.rows,
		Links:   v.table,
		JuncOff: off,
		Current: make([]signal.Phase, len(infos)),
		Decided: make([]signal.Phase, len(infos)),
		Infos:   infos,
	}
	prev := make([]LinkObs, total)
	settled := make([]bool, len(infos))
	if quiet {
		b.Quiet = make([]bool, len(infos))
	}
	offered := 0
	out := make([][]signal.Phase, len(infos))
	for j := range out {
		out[j] = make([]signal.Phase, steps)
		b.Current[j] = signal.Amber
	}
	for k := 0; k < steps; k++ {
		copy(prev, v.links)
		for j, sc := range scs {
			step := k
			if step >= sc.steps {
				step = sc.steps - 1 // shorter scripts hold their last state
			}
			sc.fill(step, v.links[off[j]:off[j+1]])
		}
		v.put()
		b.Step = k
		b.Time = float64(k) * infos[0].DeltaT
		for j := range infos {
			b.Decided[j] = signal.Amber
			if quiet {
				lo, hi := off[j], off[j+1]
				b.Quiet[j] = settled[j] && slices.Equal(v.links[lo:hi], prev[lo:hi])
				if b.Quiet[j] {
					offered++
				}
			}
		}
		bc.DecideAll(&b)
		for j := range infos {
			settled[j] = b.Decided[j] == b.Current[j] && b.Current[j] != signal.Amber
			out[j][k] = b.Decided[j]
			b.Current[j] = b.Decided[j]
		}
		if after != nil {
			after(k)
		}
	}
	return out, offered
}

// driveEager is the eager oracle of a Weighted family: each step it
// weighs the junction's whole window, then runs the phase rule on the
// weighed window. It returns the decision trace and the controller's
// state bytes after each step. The lazy rule, batched or per-junction,
// must reproduce the trace, and a batch-built controller the states.
func driveEager(t *testing.T, f signal.Factory, info signal.JunctionInfo, sc script) ([]signal.Phase, [][]byte) {
	t.Helper()
	ctrl, err := f.New(info)
	if err != nil {
		t.Fatalf("factory %s: New: %v", f.Name(), err)
	}
	wc, ok := ctrl.(signal.Weighted)
	if !ok {
		t.Fatalf("factory %s: controller is not signal.Weighted", f.Name())
	}
	v := newView(info.NumLinks)
	obs := signal.Obs{Links: v.table, Rows: v.rows}
	out := make([]signal.Phase, sc.steps)
	states := make([][]byte, sc.steps)
	w := make([]float64, info.NumLinks)
	cur := signal.Amber
	for k := 0; k < sc.steps; k++ {
		sc.fill(k, v.links)
		v.put()
		obs.Step = k
		obs.Time = float64(k) * info.DeltaT
		obs.Current = cur
		wc.Weigh(obs.Links, obs.Rows, w)
		out[k], states[k] = wc.DecideWeighted(w, false, &obs), stateOf(wc)
		cur = out[k]
	}
	return out, states
}

// stateOf returns a controller's snapshot state section
// (signal.SnapshotStates), empty for a controller without state.
func stateOf(c signal.Controller) []byte {
	w := snap.NewWriter(0)
	signal.SnapshotStates(w, []signal.Controller{c})
	return w.Bytes()
}

// nanFactory builds its factory's controllers wrapped so that every
// window the weighted batch hands their phase rule is filled with NaN
// first: a rule that reads a weight without weighing it then decides on
// NaN instead of a value from an earlier round.
type nanFactory struct {
	signal.Factory
}

// New implements signal.Factory.
func (f nanFactory) New(info signal.JunctionInfo) (signal.Controller, error) {
	c, err := f.Factory.New(info)
	if err != nil {
		return nil, err
	}
	w, ok := c.(signal.Weighted)
	if !ok {
		return nil, fmt.Errorf("signaltest: %s controller is not signal.Weighted", f.Name())
	}
	if r, ok := c.(signal.QuietRule); ok {
		return nanQuiet{nanWeighted{w}, r}, nil
	}
	return nanWeighted{w}, nil
}

// nanWeighted is a Weighted controller behind nanFactory.
type nanWeighted struct {
	signal.Weighted
}

// DecideWeighted implements signal.Weighted.
func (n nanWeighted) DecideWeighted(w []float64, stale bool, obs *signal.Obs) signal.Phase {
	for i := range w {
		w[i] = math.NaN()
	}
	return n.Weighted.DecideWeighted(w, stale, obs)
}

// nanQuiet keeps the wrapped controller's QuietRule.
type nanQuiet struct {
	nanWeighted
	signal.QuietRule
}

// WeightedBatchControllers builds the weighted batch of a Weighted
// family, as its BatchFactory does (signal.NewWeightedBatch), over one
// junction per script, drives every script through it, and returns the
// controllers the batch built, in junction order. A family checks on
// them what a batch-built controller holds, such as no Decide scratch.
func WeightedBatchControllers(t *testing.T, f signal.Factory) []signal.Controller {
	t.Helper()
	scs := scripts()
	infos := make([]signal.JunctionInfo, len(scs))
	for i := range infos {
		infos[i] = testJunction(fmt.Sprintf("J%d", i))
	}
	rec := &recordingFactory{Factory: f}
	bc, err := signal.NewWeightedBatch(rec, infos)
	if err != nil {
		t.Fatalf("factory %s: NewWeightedBatch: %v", f.Name(), err)
	}
	driveBatchController(t, bc, infos, scs, true, nil)
	return rec.built
}

// recordingFactory keeps every controller its factory builds.
type recordingFactory struct {
	signal.Factory
	built []signal.Controller
}

// New implements signal.Factory.
func (r *recordingFactory) New(info signal.JunctionInfo) (signal.Controller, error) {
	c, err := r.Factory.New(info)
	if err == nil {
		r.built = append(r.built, c)
	}
	return c, err
}

// checkInRange fails on any decision outside [Amber, NumPhases] — the
// range the engine actuates without coercion.
func checkInRange(t *testing.T, trace []signal.Phase, info signal.JunctionInfo) {
	t.Helper()
	for k, p := range trace {
		if p < signal.Amber || int(p) > info.NumPhases() {
			t.Fatalf("step %d: decision %v outside [c0, c%d]", k, p, info.NumPhases())
		}
	}
}

// checkAmberInsertion fails when two distinct green phases are adjacent
// or separated by fewer than minAmber amber slots.
func checkAmberInsertion(t *testing.T, trace []signal.Phase, minAmber int) {
	t.Helper()
	lastGreen := signal.Amber
	amberRun := 0
	for k, p := range trace {
		if p == signal.Amber {
			amberRun++
			continue
		}
		if lastGreen != signal.Amber && p != lastGreen {
			switch {
			case amberRun == 0:
				t.Fatalf("step %d: direct switch %v -> %v without amber", k, lastGreen, p)
			case amberRun < minAmber:
				t.Fatalf("step %d: switch %v -> %v after %d amber slots, want >= %d",
					k, lastGreen, p, amberRun, minAmber)
			}
		}
		lastGreen = p
		amberRun = 0
	}
}

// checkMaxGreen fails when any green run — completed or still in
// progress at the end of the trace — exceeds maxGreen slots: the
// max-green preemption invariant of actuated controllers.
func checkMaxGreen(t *testing.T, trace []signal.Phase, maxGreen int) {
	t.Helper()
	run := 0
	cur := signal.Amber
	for k, p := range trace {
		if p == cur {
			run++
		} else {
			cur, run = p, 1
		}
		if cur != signal.Amber && run > maxGreen {
			t.Fatalf("step %d: green %v held %d slots, max-green preemption bound is %d", k, cur, run, maxGreen)
		}
	}
}

// checkMinGreen fails when a completed green run (ended by a phase
// change, not by the end of the trace) is shorter than minGreen.
func checkMinGreen(t *testing.T, trace []signal.Phase, minGreen int) {
	t.Helper()
	run := 0
	cur := signal.Amber
	for k, p := range trace {
		if p == cur {
			run++
			continue
		}
		if cur != signal.Amber && run < minGreen {
			t.Fatalf("step %d: green %v held only %d slots, want >= %d", k, cur, run, minGreen)
		}
		cur, run = p, 1
	}
}

// equalTraces compares two decision traces.
func equalTraces(a, b []signal.Phase) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// Run executes the conformance suite for one controller family: every
// scripted scenario is checked for in-range decisions, replay
// determinism, amber insertion and minimum green, and the same scenario
// is replayed through the signal.Batched adapter — and, when the
// factory implements signal.BatchFactory, through its batched
// controller with engine-faithful quiet flags — requiring bit-for-bit
// identical traces. A family whose controllers are signal.Weighted is
// also held to its eager oracle on NaN-filled windows (checkStale).
// A final subtest drives two controllers from the same factory against
// different scripts to catch shared mutable state.
func Run(t *testing.T, c Case) {
	info := testJunction(c.Name)
	scs := scripts()
	for _, sc := range scs {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			trace := drive(t, c.Factory, info, sc)
			checkInRange(t, trace, info)
			if c.AmberSteps > 0 {
				checkAmberInsertion(t, trace, c.AmberSteps)
			}
			if c.MinGreenSteps > 1 {
				checkMinGreen(t, trace, c.MinGreenSteps)
			}
			if c.MaxGreenSteps > 0 {
				checkMaxGreen(t, trace, c.MaxGreenSteps)
			}
			if replay := drive(t, c.Factory, info, sc); !sameOrFatal(t, trace, replay, "replay") {
				return
			}
			if adapted := driveBatched(t, c.Factory, info, sc); !sameOrFatal(t, trace, adapted, "batched adapter") {
				return
			}
		})
	}
	if bf, ok := c.Factory.(signal.BatchFactory); ok {
		t.Run("batch-factory", func(t *testing.T) {
			// Three junctions on distinct scripts in one batch must each
			// reproduce their isolated per-junction trace.
			infos := []signal.JunctionInfo{
				testJunction(c.Name + "-a"),
				testJunction(c.Name + "-b"),
				testJunction(c.Name + "-c"),
			}
			// Fill functions are pure in the step index, so the scripts
			// can be re-cut to one shared length for the batch.
			const batchSteps = 280
			picked := []script{
				{scs[1].name, batchSteps, scs[1].fill},
				{scs[2].name, batchSteps, scs[2].fill},
				{scs[4].name, batchSteps, scs[4].fill},
			}
			bc, err := bf.NewBatch(infos)
			if err != nil {
				t.Fatalf("NewBatch: %v", err)
			}
			traces, _ := driveBatchController(t, bc, infos, picked, true, nil)
			for j := range infos {
				solo := drive(t, c.Factory, infos[j], picked[j])
				sameOrFatal(t, solo, traces[j], fmt.Sprintf("batch junction %d", j))
			}
		})
		t.Run("skip-equivalence", func(t *testing.T) {
			// A batched controller may keep Current for a junction the
			// engine flags quiet instead of deciding it; the skip must
			// be invisible. On every script the trace with Quiet
			// maintained must equal the trace with Quiet nil and the
			// per-junction trace, and the frozen script must actually
			// offer Quiet, or the comparison proves nothing.
			infos := []signal.JunctionInfo{info}
			for _, sc := range scs {
				run := func(quiet bool) ([]signal.Phase, int) {
					bc, err := bf.NewBatch(infos)
					if err != nil {
						t.Fatalf("NewBatch: %v", err)
					}
					traces, offered := driveBatchController(t, bc, infos, []script{sc}, quiet, nil)
					return traces[0], offered
				}
				plain, _ := run(false)
				skipping, offered := run(true)
				if !sameOrFatal(t, plain, skipping, sc.name+": Quiet maintained vs Quiet nil") ||
					!sameOrFatal(t, drive(t, c.Factory, info, sc), skipping, sc.name+": Quiet maintained vs per-junction") {
					return
				}
				if sc.name == frozenScript && offered == 0 {
					t.Fatalf("%s: no junction-round was offered as quiet", sc.name)
				}
			}
		})
		if ctrl, err := c.Factory.New(info); err == nil {
			if _, ok := ctrl.(signal.Weighted); ok {
				t.Run("stale-equivalence", func(t *testing.T) { checkStale(t, c.Factory, info, scs) })
			}
		}
	}
	t.Run("dark-mode", func(t *testing.T) {
		// The policy the robustness events arm: all-red strictly longer
		// than the family's amber requirement, fixed-time greens no
		// shorter than its hold, ambers at least the family's.
		pol := signal.DarkPolicy{
			AllRedSteps: c.AmberSteps + 2,
			GreenSteps:  max(c.MinGreenSteps, 12),
			AmberSteps:  max(c.AmberSteps, 2),
		}
		if err := pol.Validate(); err != nil {
			t.Fatal(err)
		}
		// The alternating script forces transitions on both sides of the
		// window, so fallback and recovery both happen under pressure.
		sc := scripts()[2]
		const onset, end = 81, 151
		release := pol.ReleaseStep(onset, end)
		if release >= sc.steps-60 {
			t.Fatalf("release %d leaves no recovery window in a %d-step script", release, sc.steps)
		}
		trace := driveDark(t, c.Factory, info, sc, pol, onset, end)
		checkInRange(t, trace, info)
		for k := onset; k < release; k++ {
			if want := pol.Phase(k-onset, info.NumPhases()); trace[k] != want {
				t.Fatalf("step %d: applied %v inside the dark window, policy says %v", k, trace[k], want)
			}
		}
		if c.AmberSteps > 0 {
			// Amber insertion has no exemption: the all-red entry and the
			// policy's own amber tail must cover every transition,
			// including fallback and handback.
			checkAmberInsertion(t, trace, c.AmberSteps)
		}
		if c.MinGreenSteps > 1 {
			checkMinGreenAcrossDark(t, trace, c.MinGreenSteps, onset, release)
		}
		resumed := false
		for k := release; k < sc.steps; k++ {
			if trace[k] != signal.Amber {
				resumed = true
				break
			}
		}
		if !resumed {
			t.Fatal("controller never actuated a green after release")
		}
		if replay := driveDark(t, c.Factory, info, sc, pol, onset, end); !sameOrFatal(t, trace, replay, "dark-mode replay") {
			return
		}
	})
	t.Run("reset-rebuild", func(t *testing.T) {
		// Engine.Reset rebuilds controllers through the factory
		// (sim.buildControlPlane), relying on every build starting cold:
		// timers at zero, estimators at their prior. A factory leaking
		// state between builds — a shared timer, a reused estimator or
		// gain slab — would make the post-reset run diverge from a cold
		// start. Drive one build partway, discard it, and require a
		// fresh build to reproduce the cold full-script trace; likewise
		// for the batched controller when the factory is batch-capable.
		sc := scs[2] // alternating: transitions on both sides of the cut
		full := drive(t, c.Factory, info, sc)
		partial := script{sc.name, 137, sc.fill}
		_ = drive(t, c.Factory, info, partial) // advance and abandon one build
		rebuilt := drive(t, c.Factory, info, sc)
		sameOrFatal(t, full, rebuilt, "rebuilt controller after partial run")
		if bf, ok := c.Factory.(signal.BatchFactory); ok {
			infos := []signal.JunctionInfo{info}
			abandoned, err := bf.NewBatch(infos)
			if err != nil {
				t.Fatalf("NewBatch: %v", err)
			}
			driveBatchController(t, abandoned, infos, []script{partial}, true, nil)
			fresh, err := bf.NewBatch(infos)
			if err != nil {
				t.Fatalf("NewBatch: %v", err)
			}
			batchTraces, _ := driveBatchController(t, fresh, infos, []script{sc}, true, nil)
			sameOrFatal(t, full, batchTraces[0], "rebuilt batched controller after partial run")
		}
	})
	t.Run("independence", func(t *testing.T) {
		// Two controllers from one factory, stepped in lockstep on
		// different scripts, must match their isolated runs.
		a, err := c.Factory.New(testJunction(c.Name + "-x"))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		b, err := c.Factory.New(testJunction(c.Name + "-y"))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		scA, scB := scs[1], scs[3]
		steps := scA.steps
		if scB.steps < steps {
			steps = scB.steps
		}
		vA, vB := newView(info.NumLinks), newView(info.NumLinks)
		obsA := signal.Obs{Links: vA.table, Rows: vA.rows}
		obsB := signal.Obs{Links: vB.table, Rows: vB.rows}
		traceA := make([]signal.Phase, steps)
		traceB := make([]signal.Phase, steps)
		curA, curB := signal.Amber, signal.Amber
		for k := 0; k < steps; k++ {
			scA.fill(k, vA.links)
			vA.put()
			obsA.Step, obsA.Time, obsA.Current = k, float64(k), curA
			curA = a.Decide(&obsA)
			traceA[k] = curA
			scB.fill(k, vB.links)
			vB.put()
			obsB.Step, obsB.Time, obsB.Current = k, float64(k), curB
			curB = b.Decide(&obsB)
			traceB[k] = curB
		}
		soloA := drive(t, c.Factory, testJunction(c.Name+"-x"), script{scA.name, steps, scA.fill})
		soloB := drive(t, c.Factory, testJunction(c.Name+"-y"), script{scB.name, steps, scB.fill})
		sameOrFatal(t, soloA, traceA, "interleaved controller A")
		sameOrFatal(t, soloB, traceB, "interleaved controller B")
	})
}

// checkStale is the stale-equivalence invariant of a Weighted family:
// the weighted batch hands every rule a stale window of scratch, and the
// rule must weigh what it reads. The batch is driven with every window
// filled with NaN before its rule runs, with Quiet nil and with Quiet
// maintained, and each trace must equal the per-junction trace, itself
// the rule on a stale window, and the eager oracle: the whole window
// weighed, then the rule on the weighed window. After each round the
// batch-built controller's state bytes must equal the oracle's, so an
// estimator that folded a round late fails even where no decision
// moves.
func checkStale(t *testing.T, f signal.Factory, info signal.JunctionInfo, scs []script) {
	infos := []signal.JunctionInfo{info}
	for _, sc := range scs {
		eager, states := driveEager(t, f, info, sc)
		if !sameOrFatal(t, eager, drive(t, f, info, sc), sc.name+": per-junction vs eager oracle") {
			return
		}
		for _, quiet := range []bool{false, true} {
			rec := &recordingFactory{Factory: f}
			bc, err := signal.NewWeightedBatch(nanFactory{rec}, infos)
			if err != nil {
				t.Fatalf("NewWeightedBatch: %v", err)
			}
			what := fmt.Sprintf("%s, Quiet maintained %v", sc.name, quiet)
			traces, _ := driveBatchController(t, bc, infos, []script{sc}, quiet, func(k int) {
				if got := stateOf(rec.built[0]); !bytes.Equal(got, states[k]) {
					t.Fatalf("%s: after step %d the batch-built controller's state is %x, the eager oracle's %x", what, k, got, states[k])
				}
			})
			if !sameOrFatal(t, eager, traces[0], what+": NaN-filled windows vs eager oracle") {
				return
			}
		}
	}
}

// sameOrFatal fails the test when two traces differ, reporting the
// first divergence.
func sameOrFatal(t *testing.T, want, got []signal.Phase, what string) bool {
	t.Helper()
	if i, ok := equalTraces(want, got); !ok {
		if i < 0 {
			t.Fatalf("%s: trace length %d, want %d", what, len(got), len(want))
		}
		t.Fatalf("%s: diverges at step %d: got %v, want %v", what, i, got[i], want[i])
		return false
	}
	return true
}
