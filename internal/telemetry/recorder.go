package telemetry

import (
	"fmt"
	"math"

	"utilbp/internal/bpest"
	"utilbp/internal/signal"
)

// DefaultEstimatorAlpha is the per-event forgetting rate of the
// recorder's turn-ratio estimators — the same default the BP-EST
// controller family uses (bpest.Options), so the estimator-error
// channel tracks the controller-grade estimate.
const DefaultEstimatorAlpha = 0.05

// NetSample is one step's network-level measurement, filled by the
// engine's telemetry flush (sim.Engine.InstallTelemetry).
type NetSample struct {
	// Queued counts vehicles queued on approaches across the network
	// (turning and mixed lanes; spawn queues excluded).
	Queued int
	// SpawnQueued counts blocked arrivals: vehicles waiting in entry
	// spawn queues because their entry road is full.
	SpawnQueued int
	// Spawned and Exited count the vehicles generated and the vehicles
	// leaving the network during this step (per-step deltas; Exited is
	// the instantaneous throughput series).
	Spawned, Exited int
	// ActiveEvents counts the disruption-event windows in effect.
	ActiveEvents int
	// WaitSec is the cumulative queued vehicle-seconds accrued since
	// the recorder was (re-)armed, and CumExited the cumulative exit
	// count — their ratio is the running mean-wait estimate.
	WaitSec   float64
	CumExited int
}

// JuncMeta describes one tracked junction at arm time.
type JuncMeta struct {
	// Label is the junction's node name (e.g. "J00").
	Label string
	// NumLinks is the junction's link count, sizing the per-link
	// estimator state.
	NumLinks int
}

// juncChannel holds one tracked junction's ring-buffered series plus
// the running state its derived channels (switch count, estimator
// error) need.
type juncChannel struct {
	label string
	// Ring-buffered per-step series, all pre-sized to the ring
	// capacity at arm time.
	queued   []int32
	phase    []int32
	switches []int32
	dark     []int32
	pressure []int32
	estErr   []float32
	// lastPhase and switchCount implement the phase-switch counter: a
	// switch is a green onset onto a different phase than the previous
	// green.
	lastPhase   signal.Phase
	switchCount int32
	// est tracks, per link, the online turn-ratio estimate whose gap
	// to the realized turning fractions is the estimator-error channel.
	// lastTotal/lastErr cache each link's cumulative join count and
	// error contribution: the estimator and the realized fractions only
	// move when a vehicle joins the link's outgoing road, so steps
	// without new joins reuse the cached error instead of redoing the
	// per-movement float math (the dominant cost of the full spec).
	est       []bpest.TurnRatioEstimator
	lastTotal []int32
	lastErr   []float32
}

// Recorder records per-step metric series into pre-sized ring buffers.
// Construct with NewRecorder, install on an engine with
// sim.Engine.InstallTelemetry; the engine arms it (Arm) and flushes one
// sample set per completed step. When a run outlives the ring capacity
// the oldest samples are overwritten — the recorder keeps the most
// recent window, which is the contract a long-lived streaming consumer
// needs.
//
// All per-step record calls write into pre-allocated storage: after Arm
// the recorder performs no heap allocation until an export method is
// called (the zero-alloc hot-path contract, CI-gated by
// BenchmarkStepOnceInstrumented).
type Recorder struct {
	spec Spec
	// ringCap is the capacity in steps; n the retained sample count
	// (≤ ringCap); head the next write slot; lastStep the engine step
	// of the newest sample (-1 before any).
	ringCap  int
	n        int
	head     int
	cur      int // slot the current step writes to (set by RecordNet)
	lastStep int
	dt       float64
	armed    bool

	// Network-level ring buffers.
	netQueued      []int32
	netSpawnQueued []int32
	netSpawned     []int32
	netExited      []int32
	netActive      []int32
	netMeanWait    []float32

	juncs []juncChannel
}

// NewRecorder returns a recorder for the given spec with ring capacity
// for the given number of steps (size it from the run horizon:
// duration/Δt). The spec must be valid and not off — "off" is expressed
// by not installing a recorder.
func NewRecorder(spec Spec, steps int) (*Recorder, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Off() {
		return nil, fmt.Errorf("telemetry: cannot build a recorder for the off spec")
	}
	if steps <= 0 {
		return nil, fmt.Errorf("telemetry: ring capacity must be positive, got %d steps", steps)
	}
	return &Recorder{
		spec:           spec,
		ringCap:        steps,
		lastStep:       -1,
		netQueued:      make([]int32, steps),
		netSpawnQueued: make([]int32, steps),
		netSpawned:     make([]int32, steps),
		netExited:      make([]int32, steps),
		netActive:      make([]int32, steps),
		netMeanWait:    make([]float32, steps),
	}, nil
}

// Spec returns the selection the recorder was built for.
func (r *Recorder) Spec() Spec { return r.spec }

// Cap returns the ring capacity in steps.
func (r *Recorder) Cap() int { return r.ringCap }

// Len returns the number of retained samples (≤ Cap).
func (r *Recorder) Len() int { return r.n }

// DT returns the mini-slot length the recorder was armed with (0 before
// arming).
func (r *Recorder) DT() float64 { return r.dt }

// FirstStep returns the engine step of the oldest retained sample, -1
// when nothing is recorded yet.
func (r *Recorder) FirstStep() int {
	if r.n == 0 {
		return -1
	}
	return r.lastStep - r.n + 1
}

// Arm binds the recorder to an engine: the mini-slot length and the
// tracked-junction set (empty for KindNet). It allocates the
// per-junction channel storage once; the engine calls it from
// InstallTelemetry. Arming rewinds any previously recorded series.
func (r *Recorder) Arm(dt float64, juncs []JuncMeta) {
	r.dt = dt
	r.juncs = r.juncs[:0]
	for _, m := range juncs {
		jc := juncChannel{
			label:     m.Label,
			queued:    make([]int32, r.ringCap),
			phase:     make([]int32, r.ringCap),
			switches:  make([]int32, r.ringCap),
			dark:      make([]int32, r.ringCap),
			pressure:  make([]int32, r.ringCap),
			estErr:    make([]float32, r.ringCap),
			est:       make([]bpest.TurnRatioEstimator, m.NumLinks),
			lastTotal: make([]int32, m.NumLinks),
			lastErr:   make([]float32, m.NumLinks),
		}
		r.juncs = append(r.juncs, jc)
	}
	r.armed = true
	r.Rewind()
}

// Rewind discards the recorded series and resets the derived-channel
// state (switch counters, estimators), keeping the buffers: the engine
// calls it when a run rewinds (Reset/ResetWith) or jumps (Restore), so
// the recorder survives engine reuse without mixing runs.
func (r *Recorder) Rewind() {
	r.n, r.head, r.cur, r.lastStep = 0, 0, 0, -1
	for i := range r.juncs {
		jc := &r.juncs[i]
		jc.lastPhase = signal.Amber
		jc.switchCount = 0
		for li := range jc.est {
			jc.est[li] = bpest.NewTurnRatioEstimator(DefaultEstimatorAlpha)
			jc.lastTotal[li] = 0
			jc.lastErr[li] = 0
		}
	}
}

// RecordNet records one step's network-level sample and advances the
// ring cursor; the engine calls it exactly once per completed step,
// before the step's RecordJunc calls.
func (r *Recorder) RecordNet(step int, s NetSample) {
	r.cur = r.head
	r.head++
	if r.head == r.ringCap {
		r.head = 0
	}
	if r.n < r.ringCap {
		r.n++
	}
	r.lastStep = step
	c := r.cur
	r.netQueued[c] = int32(s.Queued)
	r.netSpawnQueued[c] = int32(s.SpawnQueued)
	r.netSpawned[c] = int32(s.Spawned)
	r.netExited[c] = int32(s.Exited)
	r.netActive[c] = int32(s.ActiveEvents)
	exited := s.CumExited
	if exited < 1 {
		exited = 1
	}
	r.netMeanWait[c] = float32(s.WaitSec / float64(exited))
}

// RecordJunc records one tracked junction's channels for the step
// RecordNet just opened. ji indexes the JuncMeta slice passed to Arm;
// links is the junction's window of the link table, rows the ground-
// truth road rows it indexes, applied the phase actuated this step,
// active the applied phase's link-membership row (nil when amber), and
// dark whether the junction's controller is offline.
//
// The channels derived here: queued sums the per-link turning-lane
// queues q_i^{i'}; pressure is the applied phase's ORIG-BP-style
// pressure Σ (q_i^{i'} − q_{i'}) over its links (eq. 5 flavor — the
// differential the decision actuated); switches counts green onsets
// onto a different phase; estErr is the mean absolute gap between an
// online turn-ratio estimate (the BP-EST estimator family at
// DefaultEstimatorAlpha, fed the realized per-movement join counters)
// and the cumulative turning fractions the frozen route table realizes
// — the convergence signal of the estimated-state controllers, -1 while
// no link has turning data.
func (r *Recorder) RecordJunc(ji int, links []signal.Link, rows []signal.Row, applied signal.Phase, active []bool, dark bool) {
	jc := &r.juncs[ji]
	c := r.cur
	queued := 0
	pressure := 0
	errSum := 0.0
	errN := 0
	for li := range links {
		l := &links[li]
		out := &rows[l.Out]
		queue := int(rows[l.In].Queued[l.Turn])
		queued += queue
		if active != nil && active[li] {
			pressure += queue - int(out.Total)
		}
		total := 0
		for _, j := range out.Joins {
			total += int(j)
		}
		if total > 0 {
			if int32(total) != jc.lastTotal[li] {
				jc.est[li].Observe(out.Joins)
				ratios := jc.est[li].Ratios()
				sum := 0.0
				for t, j := range out.Joins {
					sum += math.Abs(ratios[t] - float64(j)/float64(total))
				}
				jc.lastTotal[li] = int32(total)
				jc.lastErr[li] = float32(sum / float64(len(out.Joins)))
			}
			errSum += float64(jc.lastErr[li])
			errN++
		}
	}
	if applied != signal.Amber && applied != jc.lastPhase {
		jc.switchCount++
		jc.lastPhase = applied
	}
	estErr := float32(-1)
	if errN > 0 {
		estErr = float32(errSum / float64(errN))
	}
	jc.queued[c] = int32(queued)
	jc.phase[c] = int32(applied)
	jc.switches[c] = jc.switchCount
	if dark {
		jc.dark[c] = 1
	} else {
		jc.dark[c] = 0
	}
	jc.pressure[c] = int32(pressure)
	jc.estErr[c] = estErr
}

// Headers returns the column names of Columns, in order: step and
// simulation time, the network channels, then six channels per tracked
// junction prefixed with its label.
func (r *Recorder) Headers() []string {
	h := []string{"step", "time_s", "queued", "spawn_queued", "spawned", "exited", "mean_wait_s", "active_events"}
	for i := range r.juncs {
		l := r.juncs[i].label
		h = append(h,
			l+"_queued", l+"_phase", l+"_switches", l+"_dark", l+"_pressure", l+"_est_err")
	}
	return h
}

// Columns materializes the retained series in chronological order, one
// float64 column per header. Export allocates; it is not part of the
// zero-alloc recording path.
func (r *Recorder) Columns() [][]float64 {
	cols := make([][]float64, 0, 8+6*len(r.juncs))
	first := r.FirstStep()
	stepCol := make([]float64, r.n)
	timeCol := make([]float64, r.n)
	for i := 0; i < r.n; i++ {
		stepCol[i] = float64(first + i)
		timeCol[i] = float64(first+i) * r.dt
	}
	cols = append(cols, stepCol, timeCol,
		r.chronoInt(r.netQueued), r.chronoInt(r.netSpawnQueued),
		r.chronoInt(r.netSpawned), r.chronoInt(r.netExited),
		r.chronoFloat(r.netMeanWait), r.chronoInt(r.netActive))
	for i := range r.juncs {
		jc := &r.juncs[i]
		cols = append(cols,
			r.chronoInt(jc.queued), r.chronoInt(jc.phase),
			r.chronoInt(jc.switches), r.chronoInt(jc.dark),
			r.chronoInt(jc.pressure), r.chronoFloat(jc.estErr))
	}
	return cols
}

// slot maps chronological sample index i (0 = oldest retained) to its
// ring slot.
func (r *Recorder) slot(i int) int {
	return (r.head - r.n + i + r.ringCap) % r.ringCap
}

// chronoInt copies an int32 ring into a chronological float64 column.
func (r *Recorder) chronoInt(ring []int32) []float64 {
	out := make([]float64, r.n)
	for i := range out {
		out[i] = float64(ring[r.slot(i)])
	}
	return out
}

// chronoFloat copies a float32 ring into a chronological float64
// column.
func (r *Recorder) chronoFloat(ring []float32) []float64 {
	out := make([]float64, r.n)
	for i := range out {
		out[i] = float64(ring[r.slot(i)])
	}
	return out
}

// NetQueued returns the network total-queued series in chronological
// order — the drain-curve channel (experiment.MeasureRecovery reads
// it). It allocates like the other export methods.
func (r *Recorder) NetQueued() []float64 { return r.chronoInt(r.netQueued) }

// Times returns the simulation-time axis of the retained samples, in
// seconds.
func (r *Recorder) Times() []float64 {
	out := make([]float64, r.n)
	first := r.FirstStep()
	for i := range out {
		out[i] = float64(first+i) * r.dt
	}
	return out
}
