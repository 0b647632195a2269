package config

import (
	"bytes"
	"strings"
	"testing"

	"utilbp/internal/experiment"
)

// Fuzz run caps: a config the fuzzer writes may name any grid and
// horizon, and a large one would time the fuzzer out without telling
// anything a small one does not.
const (
	fuzzMaxSide    = 4
	fuzzMaxSeconds = 60.0
)

// FuzzLoad feeds arbitrary bytes to Load, as trafficsim -config does
// with a file, then builds the run with Spec and runs it through the
// one single-run tail, Prepare, step, experiment.Finish, on at most a
// 4×4 grid for at most 60 s. Every input is refused, by Load, Spec or
// Prepare, or runs to an engine that passes CheckInvariants, and none
// panics.
func FuzzLoad(f *testing.F) {
	var def bytes.Buffer
	if err := Default().Save(&def); err != nil {
		f.Fatal(err)
	}
	f.Add(def.Bytes())
	for _, js := range []string{
		`{"pattern":"I","controller":{"algorithm":"util"},"duration_sec":120,"amber_sec":2,"alpha":-0.5,"beta":-3}`,
		`{"seed":7,"pattern":"IV","controller":{"algorithm":"orig","period_sec":18},"duration_sec":120,"mixed_lanes":true,` +
			`"grid":{"rows":1,"cols":2,"spacing_m":100,"boundary_m":80,"speed_mps":12,"capacity":40,"mu_veh_per_s":0.5}}`,
		`{"pattern":"mixed","controller":{"algorithm":"bp-est:0.3"},"startup_lost_sec":-1,"count_approaching":true}`,
		`{"pattern":"III","controller":{"algorithm":"maxpressure:5"},"duration_sec":30,` +
			`"grid":{"rows":2,"cols":2,"spacing_m":50,"speed_mps":5,"capacity":3,"mu_veh_per_s":2}}`,
		`{"pattern":"II","controller":{"algorithm":"gapout:4,30,2"},"startup_lost_sec":9}`,
		`{"pattern":"I","controller":{"algorithm":"fixed","period_sec":12},"amber_sec":40}`,
		`{"pattern":"II","controller":{"algorithm":"capnorm:24"},"grid":{"rows":4,"cols":4,"spacing_m":1e-9,"speed_mps":1e9,"capacity":1,"mu_veh_per_s":1e-9}}`,
		`{"pattern":"I","controller":{"algorithm":"util"},"alpha":1}`,
		`{"pattern":"I","controller":{"algorithm":"cap"}}`,
		`{"pattern":"I","controller":{"algorithm":"util"},"warp":1}`,
		`{"pattern":`,
	} {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec, err := e.Spec()
		if err != nil {
			return
		}
		if g := e.Grid; g != nil && (g.Rows > fuzzMaxSide || g.Cols > fuzzMaxSide) {
			return
		}
		if !(spec.DurationSec > 0 && spec.DurationSec <= fuzzMaxSeconds) {
			spec.DurationSec = fuzzMaxSeconds
		}
		engine, _, duration, err := experiment.Prepare(spec)
		if err != nil {
			return
		}
		engine.RunFor(duration)
		if _, err := experiment.Finish(engine, spec.Factory, spec.Pattern, duration); err != nil {
			t.Fatalf("config %s: %v", strings.TrimSpace(string(data)), err)
		}
	})
}
