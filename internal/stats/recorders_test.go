package stats

import (
	"testing"

	"utilbp/internal/signal"
)

// rotation is the timeline of a controller that rotates through phases
// control phases, each green for green slots with amber slots between.
func rotation(green, amber, phases, slots int) []signal.Phase {
	out := make([]signal.Phase, slots)
	seg := green + amber
	for k := range out {
		pos := k % (seg * phases)
		if pos%seg < green {
			out[k] = signal.Phase(pos/seg + 1)
		} else {
			out[k] = signal.Amber
		}
	}
	return out
}

func TestAnalyzePhases(t *testing.T) {
	// Exactly one full cycle of 4 phases x (5 green + 2 amber).
	st := AnalyzePhases(rotation(5, 2, 4, 28))
	if st.AmberSlots != 8 {
		t.Errorf("amber slots = %d, want 8", st.AmberSlots)
	}
	for p := signal.Phase(1); p <= 4; p++ {
		if st.GreenSlots[p] != 5 {
			t.Errorf("green[%v] = %d, want 5", p, st.GreenSlots[p])
		}
	}
	// 4 green runs of length 5.
	if st.MeanGreenRun != 5 || st.MaxGreenRun != 5 {
		t.Errorf("green runs: mean %v max %d", st.MeanGreenRun, st.MaxGreenRun)
	}
	// green->amber->green... : 7 boundaries in 28 slots (4 amber starts
	// after green + 3 green starts after amber).
	if st.Transitions != 7 {
		t.Errorf("transitions = %d, want 7", st.Transitions)
	}
	if empty := AnalyzePhases(nil); empty.Transitions != 0 || empty.MeanGreenRun != 0 || empty.MaxGreenRun != 0 {
		t.Errorf("empty timeline: %+v", empty)
	}
}
