package experiment

import (
	"fmt"
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

// TimelineData carries Figures 3/4: the phases applied at the top-right
// junction over the horizon.
type TimelineData struct {
	Controller string
	DT         float64
	Phases     []signal.Phase
	Stats      stats.PhaseStats
}

// PhaseTimeline records the control phases applied at the junction at
// (row, col) — Figures 3 and 4 use the top-right junction of Pattern I
// for 2000 s.
func PhaseTimeline(setup scenario.Setup, pattern scenario.Pattern, factory signal.Factory, durationSec float64, row, col int) (TimelineData, error) {
	engine, built, duration, err := Prepare(Spec{
		Setup: setup, Pattern: pattern, Factory: factory, DurationSec: durationSec,
	})
	if err != nil {
		return TimelineData{}, err
	}
	junction := built.Grid.JunctionAt(row, col)
	if junction == network.NoNode {
		return TimelineData{}, fmt.Errorf("experiment: no junction at (%d,%d)", row, col)
	}
	rec := stats.NewPhaseRecorder(junction)
	engine.AddHooks(rec.Hooks())
	engine.RunFor(duration)
	return TimelineData{
		Controller: factory.Name(),
		DT:         engine.DeltaT(),
		Phases:     rec.Phases,
		Stats:      rec.Analyze(),
	}, nil
}

// QueueSeriesData carries Figure 5: a sampled queue-length series on one
// approach road.
type QueueSeriesData struct {
	Controller string
	Times      []float64
	Values     []int
	Mean       float64
	Max        int
}

// EastQueueSeries samples the queue on the east approach of the junction
// at (row, col) — Figure 5 uses the top-right junction under Pattern I.
func EastQueueSeries(setup scenario.Setup, pattern scenario.Pattern, factory signal.Factory, durationSec float64, row, col, stride int) (QueueSeriesData, error) {
	engine, built, duration, err := Prepare(Spec{
		Setup: setup, Pattern: pattern, Factory: factory, DurationSec: durationSec,
	})
	if err != nil {
		return QueueSeriesData{}, err
	}
	junction := built.Grid.JunctionAt(row, col)
	if junction == network.NoNode {
		return QueueSeriesData{}, fmt.Errorf("experiment: no junction at (%d,%d)", row, col)
	}
	road := scenario.EastApproach(built.Grid, junction)
	if road == network.NoRoad {
		return QueueSeriesData{}, fmt.Errorf("experiment: junction (%d,%d) has no east approach", row, col)
	}
	series := stats.NewQueueSeries(road, stride)
	engine.AddHooks(series.Hooks())
	engine.RunFor(duration)
	return QueueSeriesData{
		Controller: factory.Name(),
		Times:      series.Times,
		Values:     series.Values,
		Mean:       series.Mean(),
		Max:        series.Max(),
	}, nil
}
