package sim

import "time"

// NumSubsteps is the number of mini-slot substeps a step decomposes
// into: events, sense, control, serve, travel, arrivals.
const NumSubsteps = 6

// SubstepNames labels the mini-slot substeps in execution order — the
// span names of the exported timeline (trace.WriteTraceEvents).
var SubstepNames = [NumSubsteps]string{"events", "sense", "control", "serve", "travel", "arrivals"}

// TraceLog captures a per-step substep timeline: RunTraced appends, for
// every executed step, the wall-clock duration of each substep. Sum a
// Spans row for a substep's total over a window, or write the log out
// as Chrome trace-event JSON via trace.WriteTraceEvents and load it in
// chrome://tracing or Perfetto. Construct with NewTraceLog so the span
// storage is pre-sized; the clock reads add overhead, so the timeline
// is for attribution, not absolute comparison.
type TraceLog struct {
	// StartStep is the engine step of the first recorded entry (set on
	// the first RunTraced append after construction or Reset).
	StartStep int
	// Spans[s][i] is the duration of substep s (SubstepNames order) at
	// step StartStep+i. All six slices stay the same length.
	Spans [NumSubsteps][]time.Duration
}

// NewTraceLog returns a trace log with capacity pre-sized for the
// given number of steps.
func NewTraceLog(steps int) *TraceLog {
	tl := &TraceLog{StartStep: -1}
	for s := range tl.Spans {
		tl.Spans[s] = make([]time.Duration, 0, steps)
	}
	return tl
}

// Steps returns the number of recorded steps.
func (tl *TraceLog) Steps() int { return len(tl.Spans[0]) }

// Reset discards the recorded timeline, keeping the capacity.
func (tl *TraceLog) Reset() {
	tl.StartStep = -1
	for s := range tl.Spans {
		tl.Spans[s] = tl.Spans[s][:0]
	}
}

// append records one step's six substep durations. The first append
// into an empty log binds StartStep, so the zero value works as well as
// a NewTraceLog log (it just starts without pre-sized capacity).
func (tl *TraceLog) append(step int, d [NumSubsteps]time.Duration) {
	if tl.Steps() == 0 {
		tl.StartStep = step
	}
	for s := range tl.Spans {
		tl.Spans[s] = append(tl.Spans[s], d[s])
	}
}

// RunTraced advances the simulation like Run while recording every
// step's substep durations into tl. It steps through the same stepOnce
// as Run, only with the substep clock switched on, so the state
// evolution, telemetry flush and hooks are Run's.
func (e *Engine) RunTraced(steps int, tl *TraceLog) {
	var d [NumSubsteps]time.Duration
	for i := 0; i < steps; i++ {
		e.stepOnce(&d)
		tl.append(e.step-1, d)
	}
}
