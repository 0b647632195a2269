package stats

import (
	"utilbp/internal/network"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
)

// PhaseRecorder captures the phase applied at one junction every
// mini-slot — the raw data of the paper's Figures 3 and 4.
type PhaseRecorder struct {
	// Junction is the node whose controller is recorded.
	Junction network.NodeID
	// Phases[k] is the phase applied during mini-slot k.
	Phases []signal.Phase
}

// NewPhaseRecorder records the given junction.
func NewPhaseRecorder(junction network.NodeID) *PhaseRecorder {
	return &PhaseRecorder{Junction: junction}
}

// Hooks returns the sim hooks feeding the recorder.
func (r *PhaseRecorder) Hooks() sim.Hooks {
	return sim.Hooks{
		Phase: func(j network.NodeID, step int, p signal.Phase) {
			if j == r.Junction {
				r.Phases = append(r.Phases, p)
			}
		},
	}
}

// PhaseStats summarizes a phase timeline.
type PhaseStats struct {
	// Transitions counts changes of applied phase (amber included as a
	// distinct value, so green->amber->green counts twice).
	Transitions int
	// AmberSlots counts mini-slots spent in the transition phase c0;
	// GreenSlots[p] the slots spent in control phase p (1-based key).
	AmberSlots int
	GreenSlots map[signal.Phase]int
	// MeanGreenRun is the average length in slots of a maximal run of
	// one control phase (the paper's varying phase lengths).
	MeanGreenRun float64
	// MaxGreenRun is the longest such run.
	MaxGreenRun int
}

// Analyze computes PhaseStats from the recorded timeline.
func (r *PhaseRecorder) Analyze() PhaseStats {
	s := PhaseStats{GreenSlots: make(map[signal.Phase]int)}
	runs := 0
	runLen := 0
	totalRun := 0
	var prev signal.Phase = -1
	for _, p := range r.Phases {
		if p == signal.Amber {
			s.AmberSlots++
		} else {
			s.GreenSlots[p]++
		}
		if p != prev && prev != -1 {
			s.Transitions++
		}
		if p != signal.Amber {
			if p == prev {
				runLen++
			} else {
				if runLen > 0 {
					runs++
					totalRun += runLen
					if runLen > s.MaxGreenRun {
						s.MaxGreenRun = runLen
					}
				}
				runLen = 1
			}
		} else if runLen > 0 {
			runs++
			totalRun += runLen
			if runLen > s.MaxGreenRun {
				s.MaxGreenRun = runLen
			}
			runLen = 0
		}
		prev = p
	}
	if runLen > 0 {
		runs++
		totalRun += runLen
		if runLen > s.MaxGreenRun {
			s.MaxGreenRun = runLen
		}
	}
	if runs > 0 {
		s.MeanGreenRun = float64(totalRun) / float64(runs)
	}
	return s
}

// QueueSeries samples the total queued vehicles on one road every Every
// mini-slots — the data of the paper's Figure 5.
type QueueSeries struct {
	// Road is the sampled approach; Every the sampling stride in slots.
	Road  network.RoadID
	Every int
	// Times and Values are the sample instants (seconds) and queue
	// lengths.
	Times  []float64
	Values []int
}

// NewQueueSeries samples road every stride slots (minimum 1).
func NewQueueSeries(road network.RoadID, stride int) *QueueSeries {
	if stride < 1 {
		stride = 1
	}
	return &QueueSeries{Road: road, Every: stride}
}

// Hooks returns the sim hooks feeding the series.
func (q *QueueSeries) Hooks() sim.Hooks {
	return sim.Hooks{
		Step: func(e *sim.Engine, step int) {
			if step%q.Every != 0 {
				return
			}
			q.Times = append(q.Times, float64(step)*e.DeltaT())
			q.Values = append(q.Values, e.ApproachQueue(q.Road))
		},
	}
}

// Mean returns the average sampled queue length.
func (q *QueueSeries) Mean() float64 {
	if len(q.Values) == 0 {
		return 0
	}
	total := 0
	for _, v := range q.Values {
		total += v
	}
	return float64(total) / float64(len(q.Values))
}

// Max returns the largest sampled queue length.
func (q *QueueSeries) Max() int {
	best := 0
	for _, v := range q.Values {
		if v > best {
			best = v
		}
	}
	return best
}

// OccupancySeries samples total in-network vehicle count, a stability
// indicator (bounded queues = stable in the back-pressure sense).
type OccupancySeries struct {
	Every  int
	Times  []float64
	Values []int
}

// NewOccupancySeries samples every stride slots (minimum 1).
func NewOccupancySeries(stride int) *OccupancySeries {
	if stride < 1 {
		stride = 1
	}
	return &OccupancySeries{Every: stride}
}

// Hooks returns the sim hooks feeding the series.
func (o *OccupancySeries) Hooks() sim.Hooks {
	return sim.Hooks{
		Step: func(e *sim.Engine, step int) {
			if step%o.Every != 0 {
				return
			}
			tot := e.Totals()
			o.Times = append(o.Times, float64(step)*e.DeltaT())
			o.Values = append(o.Values, tot.Entered-tot.Exited)
		},
	}
}

// Final returns the last sampled value (0 when empty).
func (o *OccupancySeries) Final() int {
	if len(o.Values) == 0 {
		return 0
	}
	return o.Values[len(o.Values)-1]
}
