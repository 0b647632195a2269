package sim

import (
	"fmt"
	"math"

	"utilbp/internal/signal"
	"utilbp/internal/telemetry"
)

// telemetryState is the engine side of an installed telemetry recorder
// (DESIGN.md §15): the resolved tracked-junction set, the armed
// disruption schedule's step windows (for the active-event channel) and
// the running counters the per-step network sample is derived from.
// It is observation-only state — never serialized into snapshots and
// never read by any simulation substep.
type telemetryState struct {
	rec *telemetry.Recorder
	// juncs are the engine junction indices tracked by the recorder, in
	// the recorder's channel order.
	juncs []int32
	// evWindows are the armed schedule's event windows in mini-slots,
	// recomputed whenever the recorder re-arms (the schedule can change
	// across ResetWith).
	evWindows []stepWindow
	// lastSpawned/lastExited turn the cumulative conservation counters
	// into per-step deltas; waitSec accumulates queued vehicle-seconds
	// for the running mean-wait channel.
	lastSpawned, lastExited int
	waitSec                 float64
}

// stepWindow is one event's half-open mini-slot interval.
type stepWindow struct{ start, end int32 }

// InstallTelemetry installs a telemetry recorder as the engine-owned
// metrics collector: the engine arms it against its mini-slot length
// and junction table and flushes one sample set at every step boundary
// (after the arrivals substep). Passing nil uninstalls.
//
// Unlike hooks, the recorder survives Reset/ResetWith and Restore — it
// is rewound and re-armed rather than discarded, so one recorder can
// watch every run of a reused engine. Recording is observation-only:
// it never mutates simulation state, is excluded from the snapshot
// byte stream, and enabling it changes no run outcome
// (TestTelemetryObservationOnly pins this bit-for-bit).
//
// For a net+junc spec every listed junction label must name a junction
// of the engine's network.
func (e *Engine) InstallTelemetry(rec *telemetry.Recorder) error {
	if rec == nil {
		e.telem = nil
		return nil
	}
	spec := rec.Spec()
	if err := spec.Validate(); err != nil {
		return err
	}
	var idx []int32
	var metas []telemetry.JuncMeta
	switch spec.Kind {
	case telemetry.KindNet:
	case telemetry.KindFull:
		for i := range e.juncs {
			idx = append(idx, int32(i))
			metas = append(metas, telemetry.JuncMeta{Label: e.juncs[i].info.Label, NumLinks: e.juncs[i].info.NumLinks})
		}
	case telemetry.KindNetJunc:
		for _, label := range spec.JunctionList() {
			found := false
			for i := range e.juncs {
				if e.juncs[i].info.Label == label {
					idx = append(idx, int32(i))
					metas = append(metas, telemetry.JuncMeta{Label: label, NumLinks: e.juncs[i].info.NumLinks})
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sim: telemetry spec names unknown junction %q", label)
			}
		}
	default:
		return fmt.Errorf("sim: telemetry spec %q records nothing; install no recorder instead", spec)
	}
	rec.Arm(e.dt, metas)
	e.telem = &telemetryState{rec: rec, juncs: idx}
	e.rearmTelemetry()
	return nil
}

// Telemetry returns the installed recorder, nil when telemetry is off.
func (e *Engine) Telemetry() *telemetry.Recorder {
	if e.telem == nil {
		return nil
	}
	return e.telem.rec
}

// rearmTelemetry rewinds the recorder and rebinds the engine-side
// derived state to the engine's current run: Reset/ResetWith call it
// after the rewind (a swapped-in schedule changes the event windows),
// Restore after the jump (the delta counters must restart from the
// restored totals; the observation history before the checkpoint is
// not part of the snapshot, so the series restarts empty).
func (e *Engine) rearmTelemetry() {
	ts := e.telem
	ts.rec.Rewind()
	ts.evWindows = ts.evWindows[:0]
	if e.events != nil {
		for _, sp := range e.events.Specs() {
			start := int32(math.Round(sp.T0 / e.dt))
			dur := int32(math.Round(sp.Dur / e.dt))
			if dur < 1 {
				dur = 1
			}
			ts.evWindows = append(ts.evWindows, stepWindow{start: start, end: start + dur})
		}
	}
	ts.lastSpawned = e.totals.Spawned
	ts.lastExited = e.totals.Exited
	ts.waitSec = 0
}

// flushTelemetry records one completed step. It runs inside the step
// loop with e.step already advanced (the completed step is e.step-1),
// reads only ground-truth engine state, and performs no heap
// allocation (the CI-gated BenchmarkStepOnceInstrumented contract).
func (e *Engine) flushTelemetry() {
	ts := e.telem
	step := e.step - 1
	queued := e.netQueued
	spawnQ := 0
	for _, rid := range e.entries {
		spawnQ += e.roads[rid].spawn.Len()
	}
	active := 0
	for _, w := range ts.evWindows {
		if int32(step) >= w.start && int32(step) < w.end {
			active++
		}
	}
	ts.waitSec += float64(queued+spawnQ) * e.dt
	ts.rec.RecordNet(step, telemetry.NetSample{
		Queued:       queued,
		SpawnQueued:  spawnQ,
		Spawned:      e.totals.Spawned - ts.lastSpawned,
		Exited:       e.totals.Exited - ts.lastExited,
		ActiveEvents: active,
		WaitSec:      ts.waitSec,
		CumExited:    e.totals.Exited,
	})
	ts.lastSpawned = e.totals.Spawned
	ts.lastExited = e.totals.Exited
	for k, ji := range ts.juncs {
		js := &e.juncs[ji]
		var row []bool
		if js.current != signal.Amber {
			row = js.phaseActive[int(js.current)-1]
		}
		ts.rec.RecordJunc(k, js.truth, js.current, row, js.darkSince >= 0)
	}
}
