// Package event is the deterministic fault-injection plane: declarative
// disruption specs (incidents, junction dark-mode, sensor outages,
// demand surges) compiled against a network into a mini-slot-exact
// Schedule the engine applies and reverts as it steps. Schedules are
// immutable once compiled and carry no RNG state, so a disrupted run
// replays bit-for-bit under Reset/ResetWith and pooled sweeps stay
// pinned to their serial references (DESIGN.md §12).
package event

import (
	"fmt"
	"strconv"
	"strings"

	"utilbp/internal/sensing"
)

// Kind enumerates the disruption kinds a Spec can describe.
type Kind int

// The disruption kinds: a capacity-dropping incident on a road, a
// junction controller going dark, a sensing outage on a road's approach
// detectors, and a network-wide demand surge.
const (
	KindIncident Kind = iota
	KindDark
	KindOutage
	KindSurge
	numKinds
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case KindIncident:
		return "incident"
	case KindDark:
		return "dark"
	case KindOutage:
		return "outage"
	case KindSurge:
		return "surge"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Default dark-mode policy timings, in seconds, applied when a dark
// spec leaves the corresponding field zero: a 6 s all-red clearance,
// then fixed-time segments of 15 s green and 4 s amber.
const (
	DefaultDarkAllRedSec = 6
	DefaultDarkGreenSec  = 15
	DefaultDarkAmberSec  = 4
)

// Spec is one declarative disruption, the unit scenario setups and the
// CLI carry. Specs are plain comparable values with times in seconds;
// Compile resolves names and converts to mini-slots against a concrete
// network. The textual syntax (ParseSpec/String) is
//
//	incident:link=<road>,t0=<sec>,dur=<sec>,cap=<frac>
//	dark:junction=<name>,t0=<sec>,dur=<sec>[,green=<sec>,amber=<sec>,allred=<sec>]
//	outage:link=<road>,t0=<sec>,dur=<sec>[,mode=blank|freeze]
//	surge:t0=<sec>,dur=<sec>,scale=<mult>
type Spec struct {
	// Kind selects the disruption kind.
	Kind Kind
	// Target names the affected element: a road for incidents and
	// outages, a junction node for dark-mode. Surges are network-wide
	// and leave it empty.
	Target string
	// T0 is the onset time in seconds from the start of the run.
	T0 float64
	// Dur is the scheduled duration in seconds. Dark windows may run
	// longer: the degraded policy holds until its in-flight segment
	// completes (signal.DarkPolicy.ReleaseStep).
	Dur float64
	// CapFrac is the incident severity: the fraction of the road's
	// capacity remaining during the window, in (0, 1]. The effective
	// capacity is clamped to at least one vehicle so a bounded road
	// never becomes indistinguishable from an unbounded one.
	CapFrac float64
	// Scale is the surge multiplier applied to the demand rate inside
	// the window; must be positive (values below 1 model demand drops).
	Scale float64
	// Mode selects the outage behavior (blank or freeze).
	Mode sensing.OutageMode
	// GreenSec, AmberSec and AllRedSec override the dark-mode policy
	// timings in seconds; zero applies the DefaultDark* constants.
	GreenSec, AmberSec, AllRedSec float64
}

// Incident returns the spec for a capacity drop on the named road:
// during [t0, t0+dur) seconds its capacity is capFrac of nominal.
func Incident(road string, t0, dur, capFrac float64) Spec {
	return Spec{Kind: KindIncident, Target: road, T0: t0, Dur: dur, CapFrac: capFrac}
}

// Dark returns the spec for a junction controller outage with default
// degraded-policy timings.
func Dark(junction string, t0, dur float64) Spec {
	return Spec{Kind: KindDark, Target: junction, T0: t0, Dur: dur}
}

// Outage returns the spec for a sensing blackout on the named road's
// approach detectors.
func Outage(road string, t0, dur float64, mode sensing.OutageMode) Spec {
	return Spec{Kind: KindOutage, Target: road, T0: t0, Dur: dur, Mode: mode}
}

// Surge returns the spec for a network-wide demand-rate multiplier.
func Surge(t0, dur, scale float64) Spec {
	return Spec{Kind: KindSurge, T0: t0, Dur: dur, Scale: scale}
}

// Validate rejects malformed specs; scenario.Setup.BuildArtifact calls
// it (via Compile) so invalid schedules fail at build time, not
// mid-sweep. As in sensing.Spec, the inverted comparisons also reject
// NaN fields, which FuzzParseSpec exercises.
func (s Spec) Validate() error {
	if s.Kind < 0 || s.Kind >= numKinds {
		return fmt.Errorf("event: unknown event kind %d", int(s.Kind))
	}
	if !(s.T0 >= 0) {
		return fmt.Errorf("event: %v onset t0=%v, want >= 0", s.Kind, s.T0)
	}
	if !(s.Dur > 0) {
		return fmt.Errorf("event: %v duration dur=%v, want > 0", s.Kind, s.Dur)
	}
	if s.Kind == KindSurge {
		if s.Target != "" {
			return fmt.Errorf("event: surge is network-wide, unexpected target %q", s.Target)
		}
	} else {
		if s.Target == "" {
			return fmt.Errorf("event: %v needs a target", s.Kind)
		}
		if strings.ContainsAny(s.Target, ",;") || strings.TrimSpace(s.Target) != s.Target {
			return fmt.Errorf("event: %v target %q contains separators or surrounding space", s.Kind, s.Target)
		}
	}
	switch s.Kind {
	case KindIncident:
		if !(s.CapFrac > 0 && s.CapFrac <= 1) {
			return fmt.Errorf("event: incident capacity fraction %v outside (0, 1]", s.CapFrac)
		}
	case KindDark:
		if !(s.GreenSec >= 0) || !(s.AmberSec >= 0) || !(s.AllRedSec >= 0) {
			return fmt.Errorf("event: dark policy timings green=%v amber=%v allred=%v, want >= 0",
				s.GreenSec, s.AmberSec, s.AllRedSec)
		}
	case KindOutage:
		if s.Mode != sensing.OutageBlank && s.Mode != sensing.OutageFreeze {
			return fmt.Errorf("event: unknown outage mode %d", int(s.Mode))
		}
	case KindSurge:
		if !(s.Scale > 0) {
			return fmt.Errorf("event: surge scale %v, want > 0", s.Scale)
		}
	}
	return nil
}

// fmtSec renders a numeric field with minimal digits so String
// round-trips exactly through ParseSpec.
func fmtSec(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String renders the spec in the ParseSpec syntax; for valid specs the
// rendering parses back to an identical value (FuzzParseSpec pins
// this). Optional fields at their defaults are omitted, keeping the
// rendering canonical.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	b.WriteByte(':')
	switch s.Kind {
	case KindDark:
		b.WriteString("junction=")
		b.WriteString(s.Target)
		b.WriteByte(',')
	case KindIncident, KindOutage:
		b.WriteString("link=")
		b.WriteString(s.Target)
		b.WriteByte(',')
	}
	b.WriteString("t0=")
	b.WriteString(fmtSec(s.T0))
	b.WriteString(",dur=")
	b.WriteString(fmtSec(s.Dur))
	switch s.Kind {
	case KindIncident:
		b.WriteString(",cap=")
		b.WriteString(fmtSec(s.CapFrac))
	case KindDark:
		if s.GreenSec != 0 {
			b.WriteString(",green=")
			b.WriteString(fmtSec(s.GreenSec))
		}
		if s.AmberSec != 0 {
			b.WriteString(",amber=")
			b.WriteString(fmtSec(s.AmberSec))
		}
		if s.AllRedSec != 0 {
			b.WriteString(",allred=")
			b.WriteString(fmtSec(s.AllRedSec))
		}
	case KindOutage:
		if s.Mode != sensing.OutageBlank {
			b.WriteString(",mode=")
			b.WriteString(s.Mode.String())
		}
	case KindSurge:
		b.WriteString(",scale=")
		b.WriteString(fmtSec(s.Scale))
	}
	return b.String()
}

// ParseSpec parses one disruption in the syntax documented on Spec.
func ParseSpec(arg string) (Spec, error) {
	name, params, hasParams := strings.Cut(strings.TrimSpace(arg), ":")
	if !hasParams {
		return Spec{}, fmt.Errorf("event: %q has no parameters (want e.g. incident:link=...,t0=...,dur=...,cap=0.5)", arg)
	}
	var spec Spec
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "incident":
		spec.Kind = KindIncident
	case "dark":
		spec.Kind = KindDark
	case "outage":
		spec.Kind = KindOutage
	case "surge":
		spec.Kind = KindSurge
	default:
		return Spec{}, fmt.Errorf("event: unknown event kind %q (want incident, dark, outage or surge)", name)
	}
	for _, field := range strings.Split(params, ",") {
		key, value, hasValue := strings.Cut(field, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		if !hasValue || value == "" {
			return Spec{}, fmt.Errorf("event: field %q needs a value", field)
		}
		if err := spec.setField(key, value); err != nil {
			return Spec{}, err
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// setField applies one key=value pair of the spec syntax.
func (s *Spec) setField(key, value string) error {
	parseSec := func(dst *float64) error {
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("event: bad %s value %q", key, value)
		}
		*dst = v
		return nil
	}
	switch key {
	case "link":
		if s.Kind != KindIncident && s.Kind != KindOutage {
			return fmt.Errorf("event: %v takes no link target", s.Kind)
		}
		s.Target = value
		return nil
	case "junction":
		if s.Kind != KindDark {
			return fmt.Errorf("event: %v takes no junction target", s.Kind)
		}
		s.Target = value
		return nil
	case "t0":
		return parseSec(&s.T0)
	case "dur":
		return parseSec(&s.Dur)
	case "cap":
		if s.Kind != KindIncident {
			return fmt.Errorf("event: cap only applies to incidents")
		}
		return parseSec(&s.CapFrac)
	case "scale":
		if s.Kind != KindSurge {
			return fmt.Errorf("event: scale only applies to surges")
		}
		return parseSec(&s.Scale)
	case "mode":
		if s.Kind != KindOutage {
			return fmt.Errorf("event: mode only applies to outages")
		}
		switch strings.ToLower(value) {
		case "blank":
			s.Mode = sensing.OutageBlank
		case "freeze":
			s.Mode = sensing.OutageFreeze
		default:
			return fmt.Errorf("event: unknown outage mode %q (want blank or freeze)", value)
		}
		return nil
	case "green":
		if s.Kind != KindDark {
			return fmt.Errorf("event: green only applies to dark-mode")
		}
		return parseSec(&s.GreenSec)
	case "amber":
		if s.Kind != KindDark {
			return fmt.Errorf("event: amber only applies to dark-mode")
		}
		return parseSec(&s.AmberSec)
	case "allred":
		if s.Kind != KindDark {
			return fmt.Errorf("event: allred only applies to dark-mode")
		}
		return parseSec(&s.AllRedSec)
	}
	return fmt.Errorf("event: unknown field %q", key)
}

// ParseSpecs parses a semicolon-separated list of disruption specs, the
// form the trafficsim -events flag takes. Empty segments (trailing
// semicolons) are skipped; an empty string yields no specs.
func ParseSpecs(arg string) ([]Spec, error) {
	var out []Spec
	for _, part := range strings.Split(arg, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		spec, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// Summarize renders a compact per-kind census of the specs (e.g.
// "incident+surge×2") for registry listings; it returns "" for an
// empty slice.
func Summarize(specs []Spec) string {
	var counts [numKinds]int
	for _, s := range specs {
		if s.Kind >= 0 && s.Kind < numKinds {
			counts[s.Kind]++
		}
	}
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		switch {
		case counts[k] == 1:
			parts = append(parts, k.String())
		case counts[k] > 1:
			parts = append(parts, fmt.Sprintf("%v×%d", k, counts[k]))
		}
	}
	return strings.Join(parts, "+")
}
