package core

import (
	"testing"
	"testing/quick"

	"utilbp/internal/rng"
	"utilbp/internal/signal"
)

// refController is an independent, literal transcription of Algorithm 1
// from the paper's pseudocode, kept deliberately naive (no buffer reuse,
// no precomputation) and written against eqs. (8), (10), (11), (12)
// directly. The differential test drives it and the production Controller
// through identical observation sequences and requires identical
// decisions, pinning down amber bookkeeping, threshold strictness and
// tie-breaking.
type refController struct {
	info   signal.JunctionInfo
	alpha  float64
	beta   float64
	deltaK int
	tDelta int // t_{Δk} as a step index
}

func (r *refController) gain(l signal.LinkObs) float64 {
	// eq. (8)
	if l.OutCapacity > 0 && l.OutOccupancy >= l.OutCapacity {
		return r.beta
	}
	if l.Queue == 0 {
		return r.alpha
	}
	return (float64(l.Queue) - float64(l.OutQueue) + float64(r.info.WStar)) * l.Mu
}

func (r *refController) phaseGain(obs *signal.Obs, phase []int) (total, gmax float64, lmax int) {
	lmax = -1
	for _, li := range phase {
		g := r.gain(obs.Links[li])
		total += g
		if lmax == -1 || g > gmax {
			gmax, lmax = g, li
		}
	}
	return total, gmax, lmax
}

func (r *refController) decide(obs *signal.Obs) signal.Phase {
	// Line 1-2: transition period not expired.
	if obs.Current == signal.Amber && obs.Step < r.tDelta {
		return signal.Amber
	}
	// Line 3-4: keep while gmax(c(k-1)) > g* = W*·µ(Lmax)  (eq. 12).
	if obs.Current != signal.Amber {
		_, gmax, lmax := r.phaseGain(obs, r.info.Phases[obs.Current-1])
		gstar := 0.0
		if lmax >= 0 {
			gstar = float64(r.info.WStar) * obs.Links[lmax].Mu
		}
		if gmax > gstar {
			return obs.Current
		}
	}
	// Lines 6-11: select c'.
	usable := false
	for _, phase := range r.info.Phases {
		_, gmax, _ := r.phaseGain(obs, phase)
		if gmax > r.alpha {
			usable = true
			break
		}
	}
	best := signal.Amber
	bestScore := 0.0
	for pi, phase := range r.info.Phases {
		total, gmax, _ := r.phaseGain(obs, phase)
		p := signal.Phase(pi + 1)
		score := gmax
		if usable {
			if gmax <= r.alpha {
				continue
			}
			score = total
		}
		if best == signal.Amber || score > bestScore ||
			(score == bestScore && p == obs.Current && best != obs.Current) {
			best, bestScore = p, score
		}
	}
	// Lines 12-17.
	if best == obs.Current || obs.Current == signal.Amber {
		return best
	}
	r.tDelta = obs.Step + r.deltaK
	if r.deltaK == 0 {
		return best
	}
	return signal.Amber
}

// TestDifferentialAgainstPaperTranscription drives both implementations
// through long random observation sequences with closed-loop current
// phases and requires step-for-step identical decisions.
func TestDifferentialAgainstPaperTranscription(t *testing.T) {
	info := signal.JunctionInfo{
		Label:    "J",
		NumLinks: 6,
		Phases:   [][]int{{0, 1, 2}, {3}, {4, 5}},
		WStar:    40,
		DeltaT:   1,
	}
	f := func(seed uint32, amberRaw uint8) bool {
		amber := int(amberRaw%5) + 1
		prod, err := New(info, Options{AmberSteps: amber})
		if err != nil {
			return false
		}
		ref := &refController{info: info, alpha: -1, beta: -2, deltaK: amber}
		src := rng.New(uint64(seed))
		curProd, curRef := signal.Amber, signal.Amber
		for k := 0; k < 300; k++ {
			obs := signal.Obs{Step: k, Time: float64(k)}
			for li := 0; li < info.NumLinks; li++ {
				l := signal.LinkObs{
					Queue:       int32(src.Intn(12)),
					OutQueue:    int32(src.Intn(12)),
					OutCapacity: 40,
					InCapacity:  40,
					Mu:          1,
				}
				// Occasionally saturate the outgoing road or use a
				// different service rate.
				switch src.Intn(8) {
				case 0:
					l.OutOccupancy = 40
				case 1:
					l.Mu = 0.5
				default:
					l.OutOccupancy = l.OutQueue
				}
				l.ApproachQueue = l.Queue + int32(src.Intn(5))
				obs.Links = append(obs.Links, l)
			}
			obsProd := obs
			obsProd.Current = curProd
			obsRef := obs
			obsRef.Current = curRef
			curProd = prod.Decide(&obsProd)
			curRef = ref.decide(&obsRef)
			if curProd != curRef {
				t.Logf("seed %d amber %d step %d: prod %v ref %v", seed, amber, k, curProd, curRef)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialHeavyCongestion repeats the differential check in a
// regime where beta cases and full roads dominate.
func TestDifferentialHeavyCongestion(t *testing.T) {
	info := signal.JunctionInfo{
		Label:    "J",
		NumLinks: 4,
		Phases:   [][]int{{0, 1}, {2, 3}},
		WStar:    10,
		DeltaT:   1,
	}
	prod, err := New(info, Options{AmberSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refController{info: info, alpha: -1, beta: -2, deltaK: 3}
	src := rng.New(99)
	curProd, curRef := signal.Amber, signal.Amber
	for k := 0; k < 2000; k++ {
		obs := signal.Obs{Step: k, Time: float64(k)}
		for li := 0; li < info.NumLinks; li++ {
			occ := int32(8 + src.Intn(3)) // 8..10 of capacity 10: often full
			obs.Links = append(obs.Links, signal.LinkObs{
				Queue:         int32(src.Intn(3)),
				OutQueue:      occ,
				OutOccupancy:  occ,
				OutCapacity:   10,
				InCapacity:    10,
				ApproachQueue: int32(src.Intn(6)),
				Mu:            1,
			})
		}
		op, or := obs, obs
		op.Current = curProd
		or.Current = curRef
		curProd = prod.Decide(&op)
		curRef = ref.decide(&or)
		if curProd != curRef {
			t.Fatalf("step %d: prod %v ref %v", k, curProd, curRef)
		}
	}
}
