package experiment

import (
	"fmt"
	"math"
	"strings"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/stats"
)

// TableIIIRow is one row of the paper's Table III: the best fixed period
// for CAP-BP versus UTIL-BP on the same pattern.
type TableIIIRow struct {
	Pattern        scenario.Pattern
	CAPPeriodSec   int
	CAPMeanWait    float64
	UTILMeanWait   float64
	ImprovementPct float64
}

// TableIII reproduces the paper's Table III over the given patterns
// (nil = all five rows) and CAP-BP periods (nil = the Figure 2 sweep).
// durationSec > 0 shortens every run for quick builds. It is the
// pooled TableIIIMultiSeed sweep on the setup's one seed.
func TableIII(setup scenario.Setup, patterns []scenario.Pattern, periods []int, durationSec float64) ([]TableIIIRow, error) {
	return tableIIIRows(true, setup, patterns, periods, []uint64{setup.Seed}, durationSec)
}

// FormatTableIII renders rows like the paper's Table III.
func FormatTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s %-20s %-20s %s\n", "Pattern", "CAP-BP period", "CAP-BP avg queuing", "UTIL-BP avg queuing", "improvement")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-14s %-20s %-20s %.1f%%\n",
			r.Pattern.String(),
			fmt.Sprintf("%d s", r.CAPPeriodSec),
			fmt.Sprintf("%.2f s", r.CAPMeanWait),
			fmt.Sprintf("%.2f s", r.UTILMeanWait),
			r.ImprovementPct)
	}
	return b.String()
}

// Fig2Data carries Figure 2: the CAP-BP period curve on the mixed
// pattern plus the flat UTIL-BP reference.
type Fig2Data struct {
	Points   []PeriodPoint
	UTILWait float64
}

// Fig2 reproduces Figure 2: the Table III group of the mixed pattern
// on the setup's seed. durationSec > 0 shortens the runs.
func Fig2(setup scenario.Setup, periods []int, durationSec float64) (Fig2Data, error) {
	if len(periods) == 0 {
		periods = DefaultPeriods()
	}
	cells := tableIIICells(setup, []scenario.Pattern{scenario.PatternMixed}, periods, []uint64{setup.Seed}, durationSec)
	results, err := runSweep(true, []scenario.Setup{setup}, cells)
	if err != nil {
		return Fig2Data{}, err
	}
	return Fig2Data{Points: periodPoints(periods, results), UTILWait: results[len(periods)].Summary.MeanWait}, nil
}

// FormatFig2 renders the Figure 2 series as text.
func FormatFig2(d Fig2Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %s\n", "period", "CAP-BP avg queuing time")
	for _, p := range d.Points {
		fmt.Fprintf(&b, "%-10s %.2f s\n", fmt.Sprintf("%d s", p.PeriodSec), p.MeanWait)
	}
	fmt.Fprintf(&b, "UTIL-BP (period-free): %.2f s\n", d.UTILWait)
	return b.String()
}

// JunctionTrace carries Figures 3–5 for one run: the phases applied at
// one junction every mini-slot and the sampled queue of its east
// approach, next to the run's summary.
type JunctionTrace struct {
	Result
	// DT is the mini-slot length in seconds.
	DT float64
	// Phases[k] is the phase applied during mini-slot k; Stats
	// summarizes them.
	Phases []signal.Phase
	Stats  stats.PhaseStats
	// QueueTimes and Queue are the east-approach samples (seconds,
	// vehicles), taken every stride mini-slots; QueueMean and QueueMax
	// summarize them.
	QueueTimes []float64
	Queue      []int
	QueueMean  float64
	QueueMax   int
}

// TraceJunction runs a spec once and traces the junction at (row, col):
// the phase it applies every mini-slot and the queue on its east
// approach every stride mini-slots (minimum 1), both read between
// single steps. Figures 3–5 use the top-right junction under Pattern I.
func TraceJunction(setup scenario.Setup, pattern scenario.Pattern, factory signal.Factory, durationSec float64, row, col, stride int) (JunctionTrace, error) {
	engine, built, duration, err := Prepare(Spec{
		Setup: setup, Pattern: pattern, Factory: factory, DurationSec: durationSec,
	})
	if err != nil {
		return JunctionTrace{}, err
	}
	junction := built.Grid.JunctionAt(row, col)
	if junction == network.NoNode {
		return JunctionTrace{}, fmt.Errorf("experiment: no junction at (%d,%d)", row, col)
	}
	road := scenario.EastApproach(built.Grid, junction)
	if road == network.NoRoad {
		return JunctionTrace{}, fmt.Errorf("experiment: junction (%d,%d) has no east approach", row, col)
	}
	stride = max(stride, 1)
	dt := engine.DeltaT()
	steps := int(math.Round(duration / dt))
	tr := JunctionTrace{DT: dt, Phases: make([]signal.Phase, 0, steps)}
	queued := 0
	for k := 0; k < steps; k++ {
		engine.Run(1)
		tr.Phases = append(tr.Phases, engine.CurrentPhase(junction))
		if k%stride == 0 {
			q := engine.ApproachQueue(road)
			tr.QueueTimes = append(tr.QueueTimes, float64(k)*dt)
			tr.Queue = append(tr.Queue, q)
			queued += q
			tr.QueueMax = max(tr.QueueMax, q)
		}
	}
	if len(tr.Queue) > 0 {
		tr.QueueMean = float64(queued) / float64(len(tr.Queue))
	}
	tr.Stats = stats.AnalyzePhases(tr.Phases)
	res, err := Finish(engine, factory, pattern, duration)
	if err != nil {
		return JunctionTrace{}, err
	}
	tr.Result = res
	return tr, nil
}
