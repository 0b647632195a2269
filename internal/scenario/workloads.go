package scenario

import (
	"fmt"
	"sort"

	"utilbp/internal/event"
	"utilbp/internal/sensing"
)

// Workload is a named, registered simulation workload: a Setup (grid
// geometry, evaluation constants and the observation sensor spec,
// Setup.Sensor) paired with a demand pattern. The registry lets the
// experiment harness, CLI tools and benchmark driver exercise networks,
// demand shapes and sensing models beyond the paper's 3×3 grid by
// name; the registered set is documented in DESIGN.md §4.
type Workload struct {
	// Name is the registry key (kebab-case).
	Name string
	// Description says what the workload stresses.
	Description string
	// Setup carries the grid geometry and evaluation constants.
	Setup Setup
	// Pattern selects the demand shape.
	Pattern Pattern
	// Controller is the workload's suggested controller spec, the
	// default families sweeps and CLI runs use when the caller does not
	// pick one explicitly. The zero value is UTIL-BP, so historical
	// workloads keep the paper's controller.
	Controller ControllerSpec
	// SweepHorizonSec is the suggested horizon in seconds for sweep-style
	// consumers (matrix sweeps, papereval -drain, pooled-vs-serial pins) that
	// otherwise apply one flat horizon to every workload. Zero means "use
	// the consumer's default"; city-scale grids set it so a sweep over
	// the registry stays minutes, not hours.
	SweepHorizonSec float64
}

// SweepHorizon returns the workload's suggested sweep horizon, falling
// back to the consumer's default when the workload does not set one.
func (w Workload) SweepHorizon(defaultSec float64) float64 {
	if w.SweepHorizonSec > 0 {
		return w.SweepHorizonSec
	}
	return defaultSec
}

var workloads = map[string]Workload{}

// RegisterWorkload adds a workload to the registry. It rejects empty
// names and duplicates, so registrations surface conflicts instead of
// silently overwriting.
func RegisterWorkload(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("scenario: workload name must not be empty")
	}
	if _, dup := workloads[w.Name]; dup {
		return fmt.Errorf("scenario: workload %q already registered", w.Name)
	}
	workloads[w.Name] = w
	return nil
}

// MustRegisterWorkload is RegisterWorkload panicking on error, for
// registrations at init time.
func MustRegisterWorkload(w Workload) {
	if err := RegisterWorkload(w); err != nil {
		panic(err)
	}
}

// WorkloadByName looks a workload up by registry key.
func WorkloadByName(name string) (Workload, bool) {
	w, ok := workloads[name]
	return w, ok
}

// Workloads returns every registered workload sorted by name.
func Workloads() []Workload {
	out := make([]Workload, 0, len(workloads))
	for _, w := range workloads {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// gridSetup returns the paper's constants on a rows×cols grid.
func gridSetup(rows, cols int) Setup {
	s := Default()
	s.Grid.Rows = rows
	s.Grid.Cols = cols
	return s
}

func init() {
	MustRegisterWorkload(Workload{
		Name:        "paper-grid",
		Description: "the paper's Section V evaluation: 3×3 grid, 4-hour mixed Table II demand",
		Setup:       Default(),
		Pattern:     PatternMixed,
	})
	MustRegisterWorkload(Workload{
		Name:        "asymmetric-grid",
		Description: "4×2 grid — unequal path lengths stress the per-lane pressure signal",
		Setup:       gridSetup(4, 2),
		Pattern:     PatternIII,
	})
	MustRegisterWorkload(Workload{
		Name:        "arterial-corridor",
		Description: "1×5 corridor — a single east-west arterial with cross traffic at every junction",
		Setup:       gridSetup(1, 5),
		Pattern:     PatternI,
	})
	MustRegisterWorkload(Workload{
		Name:        "rush-hour-ramp",
		Description: "3×3 grid under a trapezoidal demand ramp peaking above the paper's operating point",
		Setup:       Default(),
		Pattern:     PatternRush,
	})
	MustRegisterWorkload(Workload{
		Name:            "city-grid",
		Description:     "16×16 grid (256 junctions) under uniform Table II demand — the city-scale memory/throughput stress",
		Setup:           gridSetup(16, 16),
		Pattern:         PatternII,
		SweepHorizonSec: 300,
	})
	MustRegisterWorkload(Workload{
		Name:            "downtown-core",
		Description:     "8×8 grid under Pattern IV single-heavy demand — asymmetric load on a dense core",
		Setup:           gridSetup(8, 8),
		Pattern:         PatternIV,
		SweepHorizonSec: 450,
	})
	disrupted, err := gridSetup(16, 16).WithCentralIncident(60, 120, 0.4)
	if err != nil {
		panic(err)
	}
	disrupted.Events = append(disrupted.Events,
		event.Dark("J00", 150, 90),
		event.Surge(60, 180, 1.5),
	)
	MustRegisterWorkload(Workload{
		Name:            "city-grid-incident",
		Description:     "the 16×16 city grid with a mid-run capacity incident, a dark junction and a demand surge — the out-of-the-box disrupted scenario (DESIGN.md §12)",
		Setup:           disrupted,
		Pattern:         PatternII,
		SweepHorizonSec: 300,
	})
	area, err := gridSetup(16, 16).WithCornerAreaIncident(3, 60, 120, 0.1)
	if err != nil {
		panic(err)
	}
	MustRegisterWorkload(Workload{
		Name:            "city-grid-area-incident",
		Description:     "the 16×16 city grid with a 3×3-junction area incident at the loaded top-right corner — every approach of the district drops to 10% capacity mid-run (the stress-study scenario, DESIGN.md §14)",
		Setup:           area,
		Pattern:         PatternII,
		SweepHorizonSec: 300,
	})
	saturated := Default()
	saturated.DemandScale = 1.5
	MustRegisterWorkload(Workload{
		Name:        "saturation-grid",
		Description: "3×3 grid under uniform demand scaled 1.5× past the paper's operating point — the oversaturated stress where queues approach capacity",
		Setup:       saturated,
		Pattern:     PatternII,
	})
	estimated := Default()
	estimated.Sensor = sensing.CV(0.3)
	MustRegisterWorkload(Workload{
		Name:        "estimated-grid",
		Description: "3×3 grid under uniform demand observed through 30% connected-vehicle penetration — the estimation-error stress (DESIGN.md §10)",
		Setup:       estimated,
		Pattern:     PatternII,
		Controller:  ControllerSpec{Kind: ControllerBPEst},
	})
}
