// Package cli holds the flag-parsing helpers shared by the command-line
// tools: pattern and controller-name resolution against a scenario
// setup, and the sweep period range.
package cli

import (
	"fmt"
	"strings"

	"utilbp/internal/scenario"
	"utilbp/internal/signal"
)

// ParsePattern resolves a Table II pattern name ("I".."IV", "1".."4",
// "mixed"/"m", "rush"/"r", case-insensitive).
func ParsePattern(s string) (scenario.Pattern, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "I", "1":
		return scenario.PatternI, nil
	case "II", "2":
		return scenario.PatternII, nil
	case "III", "3":
		return scenario.PatternIII, nil
	case "IV", "4":
		return scenario.PatternIV, nil
	case "MIXED", "M":
		return scenario.PatternMixed, nil
	case "RUSH", "R":
		return scenario.PatternRush, nil
	}
	return 0, fmt.Errorf("unknown pattern %q (want I, II, III, IV, mixed or rush)", s)
}

// ControllerNames lists the controller families PickFactory accepts,
// delegating to the scenario-layer spec syntax.
func ControllerNames() []string {
	return scenario.ControllerSpecNames()
}

// PickFactory resolves a controller spec string ("util", "cap:20",
// "maxpressure:12", "gapout:8,40,3", "bp-est:0.05", ...) to a factory
// configured from the setup. The legacy -period flag still applies to
// the fixed-slot and pretimed families when the spec itself does not
// carry a period, so "cap -period 20" and "cap:20" stay equivalent.
func PickFactory(setup scenario.Setup, name string, period int) (signal.Factory, error) {
	spec, err := scenario.ParseControllerSpec(name)
	if err != nil {
		return nil, err
	}
	if spec.PeriodSec == 0 && period > 0 {
		switch spec.Kind {
		case scenario.ControllerCap, scenario.ControllerCapNorm,
			scenario.ControllerOrig, scenario.ControllerFixed:
			spec.PeriodSec = period
		}
	}
	return setup.Controller(spec)
}

// PeriodRange returns the sweep periods min, min+step, ... up to max, in
// seconds. It rejects a range that is empty or never ends: it needs
// 0 < min <= max and step > 0.
func PeriodRange(min, max, step int) ([]int, error) {
	if min <= 0 || max < min || step <= 0 {
		return nil, fmt.Errorf("period range %d..%d step %d: need 0 < min <= max and step > 0", min, max, step)
	}
	var out []int
	for p := min; p <= max; p += step {
		out = append(out, p)
	}
	return out, nil
}
