package experiment

import (
	"fmt"
	"strings"

	"utilbp/internal/core"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
)

// AblationRow is the result of removing one UTIL-BP mechanism.
type AblationRow struct {
	// Name identifies the ablation (A1..A6 of DESIGN.md).
	Name string
	// Description says what was removed.
	Description string
	// MeanWait is the resulting average queuing time; DegradationPct is
	// the relative change against the full algorithm (positive = the
	// mechanism was helping).
	MeanWait       float64
	DegradationPct float64
}

// ablationSpec describes one variant.
type ablationSpec struct {
	name        string
	description string
	factory     func(scenario.Setup) signal.Factory
}

// ablationSpecs lists the full algorithm first, then one variant per
// removed mechanism.
func ablationSpecs() []ablationSpec {
	return []ablationSpec{
		{
			name:        "full UTIL-BP",
			description: "the complete algorithm",
			factory:     func(s scenario.Setup) signal.Factory { return s.UtilBP() },
		},
		{
			name:        "A1 no-W*-shift",
			description: "clamp gains at zero: no service under negative pressure difference",
			factory: func(s scenario.Setup) signal.Factory {
				return s.UtilBPVariant(core.GainVariant{NoWStarShift: true}, false)
			},
		},
		{
			name:        "A2 no-keep-phase",
			description: "drop Algorithm 1 Case 2: re-select the phase every mini-slot",
			factory: func(s scenario.Setup) signal.Factory {
				return s.UtilBPVariant(core.GainVariant{}, true)
			},
		},
		{
			name:        "A3 no-special-cases",
			description: "score full-outgoing and empty-incoming links by the plain formula",
			factory: func(s scenario.Setup) signal.Factory {
				return s.UtilBPVariant(core.GainVariant{NoSpecialCases: true}, false)
			},
		},
		{
			name:        "A4 whole-road-pressure",
			description: "use q_i instead of q_i^{i'} for the incoming pressure (eq. 5 style)",
			factory: func(s scenario.Setup) signal.Factory {
				return s.UtilBPVariant(core.GainVariant{WholeRoadPressure: true}, false)
			},
		},
		{
			name:        "A6 count-approaching",
			description: "pressure includes vehicles still rolling toward the stop line",
			factory: func(s scenario.Setup) signal.Factory {
				widened := s
				widened.CountApproaching = true
				return widened.UtilBP()
			},
		},
	}
}

// Ablations runs the full UTIL-BP and every single-mechanism ablation on
// one pattern and the setup's seed, one cell per variant on the pooled
// sweep runner — every variant is a UTIL-BP factory, so the variants
// share cached UTIL-BP engines — and reports the degradation each
// removal causes. The first returned row is the full algorithm
// (degradation 0).
func Ablations(setup scenario.Setup, pattern scenario.Pattern, durationSec float64) ([]AblationRow, error) {
	specs := ablationSpecs()
	cells := make([]cell, len(specs))
	for i, spec := range specs {
		cells[i] = cell{
			pattern: pattern, family: FamilyUtilBP, factory: spec.factory(setup),
			sensor: setup.Sensor, seed: setup.Seed, horizon: durationSec,
			workload: pattern.String(), controller: spec.name,
		}
	}
	results, err := runSweep(true, []scenario.Setup{setup}, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(specs))
	base := results[0].Summary.MeanWait
	for i, spec := range specs {
		rows[i] = AblationRow{Name: spec.name, Description: spec.description, MeanWait: results[i].Summary.MeanWait}
		if i > 0 && base > 0 {
			rows[i].DegradationPct = 100 * (rows[i].MeanWait - base) / base
		}
	}
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-12s %-12s %s\n", "variant", "avg queuing", "vs full", "removed mechanism")
	for _, r := range rows {
		delta := "-"
		if r.Name != "full UTIL-BP" {
			delta = fmt.Sprintf("%+.1f%%", r.DegradationPct)
		}
		fmt.Fprintf(&b, "%-24s %-12s %-12s %s\n",
			r.Name, fmt.Sprintf("%.2f s", r.MeanWait), delta, r.Description)
	}
	return b.String()
}
