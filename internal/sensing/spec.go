package sensing

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the sensor families a Spec can select.
type Kind int

// The sensor families: perfect observation (the zero value), stop-bar
// loop detection, and connected-vehicle penetration sampling.
const (
	KindPerfect Kind = iota
	KindLoop
	KindConnectedVehicle
)

// Spec is the declarative sensor configuration carried by scenario
// setups, the workload registry and experiment sweep axes. The zero
// value is the perfect sensor, so existing setups keep today's exact
// observations without opting in. Specs are plain values: comparable,
// printable (String) and parseable (ParseSpec), which is what lets a
// sweep treat "which sensor" as an axis next to pattern and seed.
type Spec struct {
	// Kind selects the sensor family.
	Kind Kind
	// Rate is the connected-vehicle penetration rate in (0, 1].
	Rate float64
	// NoiseStd is the connected-vehicle additive noise std in vehicles.
	NoiseStd float64
	// LatencySteps is the connected-vehicle report latency in
	// mini-slots (minimum interval between accepted reports per link).
	LatencySteps int
	// Saturation is the loop detector-zone capacity; 0 means
	// DefaultSaturation, negative disables saturation.
	Saturation int
	// FailProb is the loop per-event detection-failure probability.
	FailProb float64
	// FilterAlpha overrides the connected-vehicle exponential-filter
	// gain; 0 means DefaultCVAlpha.
	FilterAlpha float64
}

// CV returns the connected-vehicle spec for a penetration rate, the
// shorthand penetration sweeps are built from.
func CV(rate float64) Spec { return Spec{Kind: KindConnectedVehicle, Rate: rate} }

// Loop returns the stop-bar loop-detector spec with default saturation
// and failure probability.
func Loop() Spec { return Spec{Kind: KindLoop} }

// Perfect reports whether the spec selects perfect observation. The
// engine runs perfect specs sensor-free (the observation aliases the
// truth storage), so they cost nothing.
func (s Spec) Perfect() bool { return s.Kind == KindPerfect }

// Validate rejects malformed specs; scenario.Setup.BuildArtifact calls
// it so invalid sensors fail at build time, not mid-sweep.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindPerfect:
		return nil
	case KindLoop:
		// The inverted comparisons also reject NaN (every NaN comparison
		// is false), which FuzzParseSpec caught slipping through the
		// naive range checks via "cv:NaN"-style inputs.
		if !(s.FailProb >= 0 && s.FailProb < 1) {
			return fmt.Errorf("sensing: loop failure probability %v outside [0, 1)", s.FailProb)
		}
		return nil
	case KindConnectedVehicle:
		if !(s.Rate > 0 && s.Rate <= 1) {
			return fmt.Errorf("sensing: connected-vehicle penetration rate %v outside (0, 1]", s.Rate)
		}
		// An infinite std turns every noisy reading into ±Inf or NaN.
		if !(s.NoiseStd >= 0 && s.NoiseStd <= math.MaxFloat64) {
			return fmt.Errorf("sensing: noise std %v is not a finite non-negative value", s.NoiseStd)
		}
		if s.LatencySteps < 0 {
			return fmt.Errorf("sensing: negative report latency %d", s.LatencySteps)
		}
		if !(s.FilterAlpha >= 0 && s.FilterAlpha <= 1) {
			return fmt.Errorf("sensing: filter alpha %v outside [0, 1]", s.FilterAlpha)
		}
		return nil
	}
	return fmt.Errorf("sensing: unknown sensor kind %d", int(s.Kind))
}

// New builds the sensor the spec describes, seeded for run seed 0 (the
// engine or scenario layer reseeds it for the actual run). Perfect
// specs return the explicit Perfect sensor; callers that want the
// engine's sensor-free fast path should check Perfect() and pass nil
// instead (scenario.Artifact.Instantiate does).
func (s Spec) New() (Sensor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindPerfect:
		return Perfect{}, nil
	case KindLoop:
		return NewLoopDetector(LoopDetectorOptions{
			Saturation: s.Saturation,
			FailProb:   s.FailProb,
		}), nil
	default:
		return NewConnectedVehicle(ConnectedVehicleOptions{
			Rate:         s.Rate,
			NoiseStd:     s.NoiseStd,
			LatencySteps: s.LatencySteps,
			Alpha:        s.FilterAlpha,
		}), nil
	}
}

// String renders the spec compactly. For specs expressible in the CLI
// syntax ("perfect", "loop", "loop:<saturation>", "cv:<rate>") the
// rendering round-trips through ParseSpec; parameters beyond the CLI
// surface (failure probability, noise, latency) are appended
// informationally.
func (s Spec) String() string {
	switch s.Kind {
	case KindPerfect:
		return "perfect"
	case KindLoop:
		out := "loop"
		if s.Saturation != 0 && s.Saturation != DefaultSaturation {
			out = fmt.Sprintf("loop:%d", s.Saturation)
		}
		if s.FailProb > 0 {
			out += fmt.Sprintf(",fail=%.2f", s.FailProb)
		}
		return out
	case KindConnectedVehicle:
		// Render the rate with minimal digits so String round-trips
		// exactly through ParseSpec (%.2f would collapse cv:0.125 and
		// cv:0.13 into one label).
		out := "cv:" + strconv.FormatFloat(s.Rate, 'g', -1, 64)
		if s.NoiseStd > 0 {
			out += fmt.Sprintf(",noise=%.1f", s.NoiseStd)
		}
		if s.LatencySteps > 0 {
			out += fmt.Sprintf(",lat=%d", s.LatencySteps)
		}
		return out
	}
	return fmt.Sprintf("sensor(%d)", int(s.Kind))
}

// ParseSpec parses the CLI sensor syntax: "perfect", "loop",
// "loop:<saturation>" or "cv:<rate>" (penetration rate in (0, 1]).
func ParseSpec(arg string) (Spec, error) {
	name, param, hasParam := strings.Cut(strings.TrimSpace(arg), ":")
	switch strings.ToLower(name) {
	case "perfect", "":
		if hasParam {
			return Spec{}, fmt.Errorf("sensing: perfect sensor takes no parameter, got %q", arg)
		}
		return Spec{}, nil
	case "loop":
		spec := Loop()
		if hasParam {
			sat, err := strconv.Atoi(param)
			if err != nil || sat <= 0 {
				return Spec{}, fmt.Errorf("sensing: bad loop saturation %q (want a positive count)", param)
			}
			spec.Saturation = sat
		}
		return spec, nil
	case "cv":
		if !hasParam {
			return Spec{}, fmt.Errorf("sensing: cv sensor needs a penetration rate, e.g. cv:0.3")
		}
		rate, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("sensing: bad penetration rate %q", param)
		}
		spec := CV(rate)
		if err := spec.Validate(); err != nil {
			return Spec{}, err
		}
		return spec, nil
	}
	return Spec{}, fmt.Errorf("sensing: unknown sensor %q (want perfect, loop or cv:<rate>)", arg)
}
