package stats

import "utilbp/internal/signal"

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

// AnalyzePhases computes PhaseStats from a phase timeline, phases[k]
// being the phase applied during mini-slot k.
func AnalyzePhases(phases []signal.Phase) PhaseStats {
	s := PhaseStats{GreenSlots: make(map[signal.Phase]int)}
	runs := 0
	runLen := 0
	totalRun := 0
	var prev signal.Phase = -1
	for _, p := range phases {
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
