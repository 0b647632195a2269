package sim_test

import (
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
	"utilbp/internal/sim"
)

// restoreSubject is one engine FuzzRestore corrupts snapshots of: its
// builder and two snapshots taken along one run.
type restoreSubject struct {
	build func(testing.TB) *sim.Engine
	a, b  []byte
}

// restoreSubjects returns FuzzRestore's engines: 30 % connected
// vehicles and a loop detector behind a blank outage window, whose
// snapshots carry the sensed section, and the disrupted engine inside
// its dark window. Each is snapshotted at two steps.
func restoreSubjects(t testing.TB) []restoreSubject {
	sensed := func(spec sensing.Spec, outage bool) func(testing.TB) *sim.Engine {
		return func(t testing.TB) *sim.Engine {
			setup := scenario.Default()
			setup.Sensor = spec
			if outage {
				setup.Events = centralOutage(t, setup, 150, 200, sensing.OutageBlank)
			}
			built, err := setup.Build(scenario.PatternI)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.New(sim.Config{
				Net:         built.Grid.Network,
				Controllers: setup.UtilBP(),
				Demand:      built.Demand,
				Router:      built.Router,
				Routes:      built.Routes,
				Sensor:      built.Sensor,
				Events:      built.Events,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
	}
	disrupted := func(t testing.TB) *sim.Engine {
		e, _ := newDisrupted(t, disruptedSetup(t, 3), scenario.PatternII)
		return e
	}
	var subjects []restoreSubject
	for _, s := range []struct {
		build func(testing.TB) *sim.Engine
		a, b  int
	}{
		{sensed(sensing.CV(0.3), false), 200, 300},
		{sensed(sensing.Loop(), true), 180, 260},
		{disrupted, 360, 390},
	} {
		e := s.build(t)
		e.Run(s.a)
		a := e.Snapshot()
		e.Run(s.b - s.a)
		subjects = append(subjects, restoreSubject{build: s.build, a: a, b: e.Snapshot()})
	}
	return subjects
}

// corruptSnapshot applies ops to a, four bytes an edit: the edit kind,
// a 16-bit position scaled to the stream, and an argument. It flips one
// bit, truncates the stream, or splices a's head onto b's tail at
// positions scaled to each.
func corruptSnapshot(a, b, ops []byte) []byte {
	data := append([]byte(nil), a...)
	at := func(hi, lo byte, n int) int { return (int(hi)<<8 | int(lo)) * n >> 16 }
	for i := 0; i+3 < len(ops) && len(data) > 0; i += 4 {
		kind, hi, lo, arg := ops[i]%3, ops[i+1], ops[i+2], ops[i+3]
		switch kind {
		case 0:
			data[at(hi, lo, len(data))] ^= 1 << (arg % 8)
		case 1:
			data = data[:at(hi, lo, len(data))]
		case 2:
			head := data[:at(hi, lo, len(data))]
			data = append(head, b[at(arg, lo, len(b)):]...)
		}
	}
	return data
}

// FuzzRestore feeds Restore bit flips, truncations and splices of two
// snapshots of one engine. Every input must either be refused or
// restore into an engine that passes CheckInvariants over 20 more
// steps; none may panic.
func FuzzRestore(f *testing.F) {
	subjects := restoreSubjects(f)
	for i := range subjects {
		w := uint8(i)
		f.Add(w, []byte{})                                // intact
		f.Add(w, []byte{0, 0xc0, 0, 0})                   // a bit flip three quarters in
		f.Add(w, []byte{0, 0xe8, 0x10, 3, 0, 0x90, 0, 5}) // two flips
		f.Add(w, []byte{1, 0x80, 0, 0})                   // cut in half
		f.Add(w, []byte{2, 0x70, 0x40, 0x70})             // splice at the same point
		f.Add(w, []byte{2, 0x60, 0, 0x90})                // splice b's later tail
	}
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		s := subjects[int(which)%len(subjects)]
		e := s.build(t)
		if err := e.Restore(corruptSnapshot(s.a, s.b, ops)); err != nil {
			return
		}
		for step := range 20 {
			e.Run(1)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("%d steps after the restore: %v", step+1, err)
			}
		}
	})
}
