package sim

import (
	"bytes"
	"testing"
	"time"
)

// TestTraceLogAttribution exercises RunTraced's substep clock: every
// span is non-negative and the spans account for roughly the wall time
// of the run (clock reads sit between substeps, so the sum can only
// undershoot, never exceed wall time by more than scheduling noise).
func TestTraceLogAttribution(t *testing.T) {
	e := snapTestEngine(t)
	tl := NewTraceLog(200)
	wall := time.Now()
	e.RunTraced(200, tl)
	elapsed := time.Since(wall)
	var sum time.Duration
	for s := range tl.Spans {
		for i, d := range tl.Spans[s] {
			if d < 0 {
				t.Fatalf("%s span of step %d negative: %v", SubstepNames[s], i, d)
			}
			sum += d
		}
	}
	if sum <= 0 {
		t.Fatalf("spans sum to %v over %d steps", sum, tl.Steps())
	}
	// Generous ceiling: clock granularity and preemption can stretch
	// individual reads, but the attributed total cannot exceed wall time
	// plus noise.
	if sum > 2*elapsed+10*time.Millisecond {
		t.Fatalf("attributed %v, wall clock only %v", sum, elapsed)
	}
}

// TestRunTracedMatchesRun pins that the substep clock is
// observation-only: stepping one engine with Run and a twin with
// RunTraced, the two snapshots are byte-identical at every step
// boundary. It also checks the log geometry: six equal-length tracks,
// StartStep at the window start, Steps counting appends across
// windows.
func TestRunTracedMatchesRun(t *testing.T) {
	const steps = 150
	plain := snapTestEngine(t)
	traced := snapTestEngine(t)
	tl := NewTraceLog(steps)
	for i := 0; i < steps; i++ {
		plain.Run(1)
		traced.RunTraced(1, tl)
		if !bytes.Equal(plain.Snapshot(), traced.Snapshot()) {
			t.Fatalf("step %d: RunTraced state diverges from Run", i)
		}
	}
	if plain.Totals() != traced.Totals() {
		t.Fatalf("RunTraced diverged from Run: %+v vs %+v", traced.Totals(), plain.Totals())
	}
	if tl.Steps() != steps || tl.StartStep != 0 {
		t.Fatalf("trace log: %d steps from %d, want %d from 0", tl.Steps(), tl.StartStep, steps)
	}
	for s := range tl.Spans {
		if len(tl.Spans[s]) != steps {
			t.Fatalf("track %s has %d entries, want %d", SubstepNames[s], len(tl.Spans[s]), steps)
		}
	}
	// A later window appends after the first.
	traced.RunTraced(10, tl)
	if tl.Steps() != steps+10 || tl.StartStep != 0 {
		t.Fatalf("after second window: %d steps from %d", tl.Steps(), tl.StartStep)
	}
}

// TestTraceLogReset checks Reset empties the log and re-binds StartStep
// to the next recorded window.
func TestTraceLogReset(t *testing.T) {
	e := snapTestEngine(t)
	tl := NewTraceLog(64)
	e.RunTraced(20, tl)
	tl.Reset()
	if tl.Steps() != 0 || tl.StartStep != -1 {
		t.Fatalf("reset log: %d steps, start %d", tl.Steps(), tl.StartStep)
	}
	e.RunTraced(5, tl)
	if tl.Steps() != 5 || tl.StartStep != 20 {
		t.Fatalf("post-reset window: %d steps from %d, want 5 from 20", tl.Steps(), tl.StartStep)
	}
}

// TestTraceLogZeroValue checks the zero value records usably (NewTraceLog
// only pre-sizes capacity).
func TestTraceLogZeroValue(t *testing.T) {
	e := snapTestEngine(t)
	e.Run(15) // a mid-run first window must still bind StartStep
	var tl TraceLog
	e.RunTraced(3, &tl)
	if tl.Steps() != 3 || tl.StartStep != 15 {
		t.Fatalf("zero-value log: %d steps from %d, want 3 from 15", tl.Steps(), tl.StartStep)
	}
}
