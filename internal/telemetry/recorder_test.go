package telemetry

import (
	"math"
	"testing"

	"utilbp/internal/signal"
)

func TestNewRecorderRejects(t *testing.T) {
	if _, err := NewRecorder(Spec{}, 10); err == nil {
		t.Errorf("NewRecorder accepted the off spec")
	}
	if _, err := NewRecorder(Net(), 0); err == nil {
		t.Errorf("NewRecorder accepted zero capacity")
	}
	if _, err := NewRecorder(Spec{Kind: KindNetJunc}, 10); err == nil {
		t.Errorf("NewRecorder accepted an invalid spec")
	}
}

func TestRecorderNetSeries(t *testing.T) {
	r, err := NewRecorder(Net(), 8)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(2.0, nil)
	if r.Len() != 0 || r.FirstStep() != -1 {
		t.Fatalf("armed recorder not empty: len %d first %d", r.Len(), r.FirstStep())
	}
	for step := 0; step < 3; step++ {
		r.RecordNet(step, NetSample{
			Queued: 10 + step, SpawnQueued: step, Spawned: 2, Exited: 1,
			ActiveEvents: 1, WaitSec: float64(step + 1), CumExited: step + 1,
		})
	}
	if r.Len() != 3 || r.FirstStep() != 0 {
		t.Fatalf("len %d first %d, want 3, 0", r.Len(), r.FirstStep())
	}
	heads := r.Headers()
	cols := r.Columns()
	if len(heads) != len(cols) {
		t.Fatalf("%d headers for %d columns", len(heads), len(cols))
	}
	want := map[string][]float64{
		"step":          {0, 1, 2},
		"time_s":        {0, 2, 4},
		"queued":        {10, 11, 12},
		"spawn_queued":  {0, 1, 2},
		"spawned":       {2, 2, 2},
		"exited":        {1, 1, 1},
		"active_events": {1, 1, 1},
	}
	for i, h := range heads {
		exp, ok := want[h]
		if !ok {
			continue
		}
		for j, v := range exp {
			if cols[i][j] != v {
				t.Errorf("%s[%d] = %g, want %g", h, j, cols[i][j], v)
			}
		}
	}
	// mean wait = WaitSec / CumExited.
	mw := cols[6]
	if heads[6] != "mean_wait_s" {
		t.Fatalf("column 6 is %q", heads[6])
	}
	if math.Abs(mw[2]-1.0) > 1e-6 {
		t.Errorf("mean_wait_s[2] = %g, want 1", mw[2])
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r, err := NewRecorder(Net(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(1.0, nil)
	for step := 0; step < 10; step++ {
		r.RecordNet(step, NetSample{Queued: 100 + step})
	}
	if r.Len() != 4 {
		t.Fatalf("len %d, want ring capacity 4", r.Len())
	}
	if r.FirstStep() != 6 {
		t.Fatalf("first step %d, want 6 (most recent window)", r.FirstStep())
	}
	q := r.NetQueued()
	for i, want := range []float64{106, 107, 108, 109} {
		if q[i] != want {
			t.Errorf("queued[%d] = %g, want %g", i, q[i], want)
		}
	}
	times := r.Times()
	if times[0] != 6 || times[3] != 9 {
		t.Errorf("times = %v, want [6 7 8 9]", times)
	}
}

func TestRecorderRewind(t *testing.T) {
	r, err := NewRecorder(Full(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(1.0, []JuncMeta{{Label: "J00", NumLinks: 2}})
	links := make([]signal.LinkObs, 2)
	r.RecordNet(0, NetSample{Queued: 5})
	r.RecordJunc(0, links, signal.Phase(1), []bool{true, false}, false)
	r.Rewind()
	if r.Len() != 0 || r.FirstStep() != -1 {
		t.Fatalf("rewind left len %d first %d", r.Len(), r.FirstStep())
	}
	// Switch counter restarts: the same phase counts as a fresh onset.
	r.RecordNet(0, NetSample{})
	r.RecordJunc(0, links, signal.Phase(1), []bool{true, false}, false)
	cols := r.Columns()
	heads := r.Headers()
	idx := func(name string) int {
		for i, h := range heads {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	if sw := cols[idx("J00_switches")]; sw[0] != 1 {
		t.Errorf("switches after rewind = %g, want 1", sw[0])
	}
}

func TestRecorderJuncChannels(t *testing.T) {
	r, err := NewRecorder(Junc("J00"), 8)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(1.0, []JuncMeta{{Label: "J00", NumLinks: 2}})
	links := []signal.LinkObs{
		{Queue: 4, OutQueue: 1},
		{Queue: 2, OutQueue: 5},
	}
	phase1 := []bool{true, false}
	phase2 := []bool{false, true}

	// Step 0: amber — no pressure, no switch.
	r.RecordNet(0, NetSample{})
	r.RecordJunc(0, links, signal.Amber, nil, false)
	// Step 1: phase 1 green onset.
	r.RecordNet(1, NetSample{})
	r.RecordJunc(0, links, signal.Phase(1), phase1, false)
	// Step 2: phase 1 held — no new switch.
	r.RecordNet(2, NetSample{})
	r.RecordJunc(0, links, signal.Phase(1), phase1, false)
	// Step 3: phase 2, dark.
	r.RecordNet(3, NetSample{})
	r.RecordJunc(0, links, signal.Phase(2), phase2, true)

	heads := r.Headers()
	cols := r.Columns()
	col := func(name string) []float64 {
		for i, h := range heads {
			if h == name {
				return cols[i]
			}
		}
		t.Fatalf("no column %q", name)
		return nil
	}
	if q := col("J00_queued"); q[0] != 6 {
		t.Errorf("queued = %g, want 6", q[0])
	}
	if p := col("J00_pressure"); p[0] != 0 || p[1] != 3 || p[3] != -3 {
		t.Errorf("pressure = %v, want [0 3 3 -3]", p)
	}
	if sw := col("J00_switches"); sw[0] != 0 || sw[1] != 1 || sw[2] != 1 || sw[3] != 2 {
		t.Errorf("switches = %v, want [0 1 1 2]", sw)
	}
	if d := col("J00_dark"); d[2] != 0 || d[3] != 1 {
		t.Errorf("dark = %v, want [0 0 0 1]", d)
	}
	if ph := col("J00_phase"); ph[0] != 0 || ph[1] != 1 || ph[3] != 2 {
		t.Errorf("phase = %v", ph)
	}
	// No turning data yet: the estimator-error channel is the -1
	// sentinel.
	if ee := col("J00_est_err"); ee[0] != -1 {
		t.Errorf("est_err = %g, want -1 sentinel", ee[0])
	}
}

func TestRecorderEstimatorError(t *testing.T) {
	r, err := NewRecorder(Junc("J00"), 64)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(1.0, []JuncMeta{{Label: "J00", NumLinks: 1}})
	// Feed a 60/30/10 turning split; the EWMA estimate starts at the
	// uniform prior and must converge toward the realized ratios, so
	// the error series must shrink.
	links := make([]signal.LinkObs, 1)
	joins := [signal.NumTurns]int32{}
	var first, last float64
	for step := 0; step < 60; step++ {
		joins[0] += 6
		joins[1] += 3
		joins[2]++
		links[0].OutTurnJoins = joins
		r.RecordNet(step, NetSample{})
		r.RecordJunc(0, links, signal.Phase(1), []bool{true}, false)
	}
	heads := r.Headers()
	cols := r.Columns()
	for i, h := range heads {
		if h == "J00_est_err" {
			first, last = cols[i][0], cols[i][len(cols[i])-1]
		}
	}
	if first <= 0 {
		t.Fatalf("first est_err = %g, want positive (prior far from 60/30/10)", first)
	}
	if last >= first/2 {
		t.Errorf("est_err did not converge: first %g, last %g", first, last)
	}
}

// TestRecorderWrapGeometryRegression pins the overwrite-oldest ring
// geometry at every interesting boundary: one short of capacity, the
// exact wrap point, one past it, whole multiples and a mid-ring
// offset. At each boundary the recorder must retain exactly the newest
// min(n, cap) samples in chronological order, with FirstStep tracking
// the oldest retained step — the geometry the engine's incremental
// netQueued cross-check (sim.Engine.CheckInvariants) reads the tail
// through.
func TestRecorderWrapGeometryRegression(t *testing.T) {
	const capSteps = 5
	r, err := NewRecorder(Net(), capSteps)
	if err != nil {
		t.Fatal(err)
	}
	r.Arm(1.0, nil)
	if r.Cap() != capSteps {
		t.Fatalf("Cap = %d, want %d", r.Cap(), capSteps)
	}
	check := func(recorded int) {
		t.Helper()
		wantLen := recorded
		if wantLen > capSteps {
			wantLen = capSteps
		}
		if r.Len() != wantLen {
			t.Fatalf("after %d records: Len = %d, want %d", recorded, r.Len(), wantLen)
		}
		wantFirst := recorded - wantLen
		if recorded == 0 {
			wantFirst = -1
		}
		if r.FirstStep() != wantFirst {
			t.Fatalf("after %d records: FirstStep = %d, want %d", recorded, r.FirstStep(), wantFirst)
		}
		q := r.NetQueued()
		if len(q) != wantLen {
			t.Fatalf("after %d records: series len %d, want %d", recorded, len(q), wantLen)
		}
		for i, v := range q {
			// Sample for step s carries Queued = 1000+s, so the retained
			// window must be the contiguous newest steps.
			if want := float64(1000 + wantFirst + i); v != want {
				t.Fatalf("after %d records: series[%d] = %g, want %g (window %v)", recorded, i, v, want, q)
			}
		}
	}
	recorded := 0
	record := func(upTo int) {
		for ; recorded < upTo; recorded++ {
			r.RecordNet(recorded, NetSample{Queued: 1000 + recorded})
		}
	}
	check(0)
	for _, boundary := range []int{capSteps - 1, capSteps, capSteps + 1, 2 * capSteps, 2*capSteps + 3, 7 * capSteps} {
		record(boundary)
		check(boundary)
	}
	// Rewind mid-wrap restarts the geometry from an empty window.
	r.Rewind()
	recorded = 0
	check(0)
	record(capSteps + 2)
	check(capSteps + 2)
}
