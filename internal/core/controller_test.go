package core

import (
	"math"
	"testing"
	"testing/quick"

	"utilbp/internal/signal"
)

// testInfo builds a two-phase junction: phase 1 = links {0,1}, phase 2 =
// links {2,3}, W* = 120, Δt = 1.
func testInfo() signal.JunctionInfo {
	return signal.JunctionInfo{
		Label:    "J",
		NumLinks: 4,
		Phases:   [][]int{{0, 1}, {2, 3}},
		WStar:    120,
		DeltaT:   1,
	}
}

// obsWith builds an observation with the given per-link queues; all
// outgoing roads have capacity 120 and occupancy out.
func obsWith(step int, current signal.Phase, queues [4]int32, out [4]int32) *signal.Obs {
	o := &signal.Obs{Step: step, Time: float64(step), Current: current}
	for i := 0; i < 4; i++ {
		o.Links = append(o.Links, signal.LinkObs{
			Queue:         queues[i],
			ApproachQueue: queues[i],
			OutQueue:      out[i],
			OutOccupancy:  out[i],
			OutCapacity:   120,
			InCapacity:    120,
			Mu:            1,
		})
	}
	return o
}

func newCtrl(t *testing.T, opts Options) *Controller {
	t.Helper()
	c, err := New(testInfo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFirstDecisionPicksBestPhaseImmediately(t *testing.T) {
	c := newCtrl(t, Options{})
	// Phase 2's links hold all the traffic.
	obs := obsWith(0, signal.Amber, [4]int32{0, 0, 9, 4}, [4]int32{0, 0, 0, 0})
	if got := c.Decide(obs); got != 2 {
		t.Fatalf("first decision = %v, want phase 2", got)
	}
}

func TestKeepPhaseWhilePressurePositive(t *testing.T) {
	c := newCtrl(t, Options{})
	// Current phase 1; its best link has queue 10 > outgoing 3, so the
	// eq. (12) threshold keeps it even though phase 2 has more traffic.
	obs := obsWith(5, 1, [4]int32{10, 0, 50, 50}, [4]int32{3, 0, 0, 0})
	if got := c.Decide(obs); got != 1 {
		t.Fatalf("kept phase = %v, want 1", got)
	}
}

func TestSwitchWhenPressureExhausted(t *testing.T) {
	c := newCtrl(t, Options{})
	// Current phase 1 balanced (queue == outgoing ⇒ gain == g*), so the
	// controller re-selects; phase 2 wins and amber starts.
	obs := obsWith(5, 1, [4]int32{3, 0, 50, 50}, [4]int32{3, 0, 0, 0})
	if got := c.Decide(obs); got != signal.Amber {
		t.Fatalf("decision = %v, want amber before switching", got)
	}
}

func TestAmberDurationRespected(t *testing.T) {
	c := newCtrl(t, Options{AmberSteps: 4})
	queues := [4]int32{0, 0, 9, 9}
	out := [4]int32{0, 0, 0, 0}
	// Start in phase 1 with nothing to serve: switch to amber at k=10.
	if got := c.Decide(obsWith(10, 1, queues, out)); got != signal.Amber {
		t.Fatalf("no amber at switch: %v", got)
	}
	// Amber holds for steps 11..13 (4 slots total including k=10).
	for k := 11; k <= 13; k++ {
		if got := c.Decide(obsWith(k, signal.Amber, queues, out)); got != signal.Amber {
			t.Fatalf("amber ended early at step %d: %v", k, got)
		}
	}
	// At k=14 the transition expires and phase 2 begins.
	if got := c.Decide(obsWith(14, signal.Amber, queues, out)); got != 2 {
		t.Fatalf("after amber: %v, want phase 2", got)
	}
}

func TestNoAmberWhenReselectingSamePhase(t *testing.T) {
	c := newCtrl(t, Options{})
	// Current phase 1 at threshold (gain == g*, not >) triggers a
	// re-selection, but phase 1 is still the only usable phase:
	// lines 12-13 keep it with no transition.
	obs := obsWith(5, 1, [4]int32{3, 0, 0, 0}, [4]int32{3, 0, 0, 0})
	if got := c.Decide(obs); got != 1 {
		t.Fatalf("reselected same phase via amber: %v", got)
	}
}

func TestSelectionPrefersTotalGainAmongUsablePhases(t *testing.T) {
	c := newCtrl(t, Options{})
	// Phase 1: links 10+10; phase 2: one link 25, one empty (alpha).
	// Totals: phase1 = 2*(10-0+120) = 260, phase2 = (25+120) + (-1) =
	// 144. Both usable (gmax > alpha); phase 1 wins on total gain.
	obs := obsWith(0, signal.Amber, [4]int32{10, 10, 25, 0}, [4]int32{0, 0, 0, 0})
	if got := c.Decide(obs); got != 1 {
		t.Fatalf("selected %v, want phase 1 on total gain", got)
	}
}

func TestSelectionFallsBackToMaxLinkGain(t *testing.T) {
	c := newCtrl(t, Options{})
	// No phase guarantees utilization: all lanes empty except link 2
	// whose outgoing road is full (beta), others empty (alpha).
	// Lines 9-10: argmax gmax. Phase 1 has gmax alpha=-1, phase 2 has
	// max(beta, alpha) = alpha too... make phase 2 strictly worse: both
	// its links full-outgoing (beta=-2). Phase 1 must win.
	obs := &signal.Obs{Step: 0, Current: signal.Amber}
	obs.Links = []signal.LinkObs{
		{Queue: 0, OutQueue: 0, OutOccupancy: 0, OutCapacity: 120, Mu: 1},     // alpha
		{Queue: 0, OutQueue: 0, OutOccupancy: 0, OutCapacity: 120, Mu: 1},     // alpha
		{Queue: 5, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}, // beta
		{Queue: 5, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}, // beta
	}
	if got := c.Decide(obs); got != 1 {
		t.Fatalf("selected %v, want phase 1 (alpha > beta)", got)
	}
}

// TestWorkConservation is the property of Section IV Q2: whenever some
// link can serve a vehicle (non-empty lane, non-full outgoing road), the
// controller never sits on a phase with nothing to serve — after at most
// the transition period it activates a phase with a serviceable link.
func TestWorkConservation(t *testing.T) {
	f := func(q0, q1, q2, q3 uint8, full uint8) bool {
		c, err := New(testInfo(), Options{AmberSteps: 2})
		if err != nil {
			return false
		}
		queues := [4]int32{int32(q0 % 30), int32(q1 % 30), int32(q2 % 30), int32(q3 % 30)}
		out := [4]int32{0, 0, 0, 0}
		// Randomly saturate one outgoing road.
		if full%2 == 0 {
			out[full%4] = 120
		}
		serviceable := map[int]bool{}
		for i := 0; i < 4; i++ {
			if queues[i] > 0 && out[i] < 120 {
				serviceable[i] = true
			}
		}
		if len(serviceable) == 0 {
			return true // nothing to conserve
		}
		// Drive the controller with this frozen state for enough steps
		// to pass any transition; it must settle on a phase containing
		// a serviceable link.
		cur := signal.Amber
		for k := 0; k < 10; k++ {
			cur = c.Decide(obsWith(k, cur, queues, out))
		}
		if cur == signal.Amber {
			return false
		}
		phases := testInfo().Phases
		for _, li := range phases[cur-1] {
			if serviceable[li] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNoKeepPhaseAblation(t *testing.T) {
	// With NoKeepPhase the controller re-selects every slot: given a
	// better competing phase it abandons the current one even though the
	// keep-phase condition holds.
	obs := obsWith(5, 1, [4]int32{10, 0, 50, 50}, [4]int32{3, 0, 0, 0})
	keep := newCtrl(t, Options{})
	if got := keep.Decide(obs); got != 1 {
		t.Fatalf("baseline kept %v, want 1", got)
	}
	ablated := newCtrl(t, Options{NoKeepPhase: true})
	if got := ablated.Decide(obs); got != signal.Amber {
		t.Fatalf("ablated controller decided %v, want amber toward phase 2", got)
	}
}

func TestAmberOptionValidation(t *testing.T) {
	if _, err := New(testInfo(), Options{AmberSteps: -1}); err == nil {
		t.Fatal("negative amber accepted")
	}
	// The option's zero value means the paper default Δk = 4 s.
	d := newCtrl(t, Options{})
	if d.amberSteps != 4 {
		t.Fatalf("default amber = %d, want 4", d.amberSteps)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != -1 || o.Beta != -2 || o.AmberSteps != 4 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestNewValidatesInfo(t *testing.T) {
	bad := testInfo()
	bad.Phases = nil
	if _, err := New(bad, Options{}); err == nil {
		t.Error("invalid info accepted")
	}
	if _, err := New(testInfo(), Options{Alpha: 1}); err == nil {
		t.Error("positive alpha accepted")
	}
	if _, err := New(testInfo(), Options{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha accepted")
	}
	if _, err := New(testInfo(), Options{Beta: math.NaN()}); err == nil {
		t.Error("NaN beta accepted")
	}
}

func TestFactory(t *testing.T) {
	f := Factory(Options{})
	if f.Name() != "UTIL-BP" {
		t.Errorf("factory name %q", f.Name())
	}
	c, err := f.New(testInfo())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "UTIL-BP" {
		t.Errorf("controller name %q", c.Name())
	}
}

// TestVaryingPhaseLengths drives a synthetic queue evolution and checks
// the signature behaviour of Figure 4: phase lengths adapt to load.
func TestVaryingPhaseLengths(t *testing.T) {
	c := newCtrl(t, Options{AmberSteps: 2})
	cur := signal.Amber
	greens := map[signal.Phase]int{}
	// Heavy traffic on phase 1's links, light on phase 2's. Simulate
	// service: active phase drains one vehicle per slot from its links,
	// arrivals keep phase-1 lanes loaded.
	queues := [4]int32{40, 40, 2, 2}
	for k := 0; k < 200; k++ {
		out := [4]int32{0, 0, 0, 0}
		cur = c.Decide(obsWith(k, cur, queues, out))
		if cur != signal.Amber {
			greens[cur]++
			for _, li := range testInfo().Phases[cur-1] {
				if queues[li] > 0 {
					queues[li]--
				}
			}
		}
		// Phase-1 lanes refill faster than they drain half the time.
		if k%2 == 0 {
			queues[0]++
			queues[1]++
		}
		if k%25 == 0 {
			queues[2]++
		}
	}
	if greens[1] == 0 || greens[2] == 0 {
		t.Fatalf("both phases should get green: %v", greens)
	}
	if greens[1] < 3*greens[2] {
		t.Fatalf("heavy phase should dominate green time: %v", greens)
	}
}
