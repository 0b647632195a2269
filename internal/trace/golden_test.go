package trace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenEngine builds the seeded small-grid run behind the golden
// files: a 2×2 grid under Pattern I demand with the paper's UTIL-BP
// controller — fully deterministic, so its phase timeline pins the
// writer output end to end.
func goldenEngine(t *testing.T) *sim.Engine {
	t.Helper()
	setup := scenario.Default()
	setup.Grid.Rows, setup.Grid.Cols = 2, 2
	inst, err := setup.Build(scenario.PatternI)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Net:         inst.Grid.Network,
		Controllers: setup.UtilBP(),
		Demand:      inst.Demand,
		Router:      inst.Router,
		Routes:      inst.Routes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with go test ./internal/trace/ -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes); inspect and re-run with -update if intended", name, len(got), len(want))
	}
}

// TestPhaseTimelineGolden pins WritePhaseTimeline's exact output for
// the seeded run's corner junction over 150 mini-slots: the phase
// sequence is deterministic, so any drift is a writer or engine change.
func TestPhaseTimelineGolden(t *testing.T) {
	e := goldenEngine(t)
	const steps = 150
	var jn network.NodeID = -1
	for _, n := range e.Network().Nodes {
		if n.Kind == network.JunctionNode && n.Name == "J00" {
			jn = n.ID
		}
	}
	if jn < 0 {
		t.Fatal("no junction J00")
	}
	phases := make([]signal.Phase, 0, steps)
	for k := 0; k < steps; k++ {
		e.Run(1)
		phases = append(phases, e.CurrentPhase(jn))
	}
	var buf bytes.Buffer
	if err := trace.WritePhaseTimeline(&buf, e.DeltaT(), phases); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "phase_timeline.golden", buf.Bytes())
}

// TestTraceEventsGolden pins WriteTraceEvents' exact serialization on a
// synthetic deterministic timeline (wall-clock spans from a live run
// are not reproducible, so the golden uses fixed durations).
func TestTraceEventsGolden(t *testing.T) {
	names := []string{"events", "sense", "control"}
	spans := [][]time.Duration{
		{1500 * time.Nanosecond, 2 * time.Microsecond},
		{time.Microsecond, 500 * time.Nanosecond},
		{3 * time.Microsecond, 250 * time.Nanosecond},
	}
	var buf bytes.Buffer
	if err := trace.WriteTraceEvents(&buf, names, spans); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace events are not valid JSON: %s", buf.String())
	}
	checkGolden(t, "trace_events.golden", buf.Bytes())
}

// TestTraceEventsFromRun checks the live path end to end: a traced run
// of the seeded engine exports valid JSON with one complete event per
// substep per step, in timeline order.
func TestTraceEventsFromRun(t *testing.T) {
	e := goldenEngine(t)
	const steps = 40
	tl := sim.NewTraceLog(steps)
	e.RunTraced(steps, tl)
	var buf bytes.Buffer
	if err := trace.WriteTraceEvents(&buf, sim.SubstepNames[:], tl.Spans[:]); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace events do not parse: %v", err)
	}
	if len(events) != steps*sim.NumSubsteps {
		t.Fatalf("%d events, want %d", len(events), steps*sim.NumSubsteps)
	}
	if events[0]["name"] != "events" || events[1]["name"] != "sense" {
		t.Fatalf("substep order broken: %v %v", events[0]["name"], events[1]["name"])
	}
	prev := -1.0
	for _, ev := range events {
		ts, ok := ev["ts"].(float64)
		if !ok || ts < prev {
			t.Fatalf("timestamps not monotonic floats: %v after %g", ev["ts"], prev)
		}
		prev = ts
	}
}

// failWriter fails after n bytes, exercising writer error propagation.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriterErrorPropagation checks the trace writers surface an
// io.Writer failure instead of swallowing it.
func TestWriterErrorPropagation(t *testing.T) {
	spans := [][]time.Duration{{time.Microsecond, 2 * time.Microsecond}}
	if err := trace.WriteTraceEvents(&failWriter{n: 4}, []string{"x"}, spans); err == nil {
		t.Error("WriteTraceEvents swallowed a write error")
	}
	if err := trace.WriteSeries(&failWriter{n: 2}, []string{"x"}, []float64{1, 2}); err == nil {
		t.Error("WriteSeries swallowed a write error")
	}
	if err := trace.WritePhaseTimeline(&failWriter{n: 2}, 1, []signal.Phase{1, 2, 0, 1}); err == nil {
		t.Error("WritePhaseTimeline swallowed a write error")
	}
}

// TestWriteTraceEventsValidation pins the shape errors: name/track
// count mismatch and ragged tracks.
func TestWriteTraceEventsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteTraceEvents(&buf, []string{"a"}, nil); err == nil {
		t.Error("name/track count mismatch accepted")
	}
	ragged := [][]time.Duration{{1}, {1, 2}}
	if err := trace.WriteTraceEvents(&buf, []string{"a", "b"}, ragged); err == nil {
		t.Error("ragged tracks accepted")
	}
}
