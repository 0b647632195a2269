package bp

import (
	"testing"
	"testing/quick"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

func info2() signal.JunctionInfo {
	return signal.JunctionInfo{
		Label:    "J",
		NumLinks: 4,
		Phases:   [][]int{{0, 1}, {2, 3}},
		WStar:    120,
		DeltaT:   1,
	}
}

func obs4(step int, current signal.Phase, queues, out [4]int32) *signal.Obs {
	o := &signal.Obs{Step: step, Time: float64(step), Current: current}
	var links []signaltest.LinkObs
	for i := 0; i < 4; i++ {
		links = append(links, signaltest.LinkObs{
			Queue:         queues[i],
			ApproachQueue: queues[i] + 1, // whole-road pressure differs
			OutQueue:      out[i],
			OutOccupancy:  out[i],
			OutCapacity:   120,
			InCapacity:    120,
			Mu:            1,
		})
	}
	o.Links, o.Rows = signaltest.Pairs(links...)
	return o
}

// gain scores the scripted link l with f.
func gain(f GainFunc, l signaltest.LinkObs) float64 {
	table, rows := signaltest.Pairs(l)
	return f(&table[0], rows)
}

func TestOriginalGain(t *testing.T) {
	l := signaltest.LinkObs{Queue: 5, ApproachQueue: 12, OutQueue: 4, OutOccupancy: 4, Mu: 2}
	// eq. (5) uses the whole-road queue b_i.
	if got := gain(OriginalGain, l); got != 16 {
		t.Errorf("OriginalGain = %v, want (12-4)*2 = 16", got)
	}
	neg := signaltest.LinkObs{Queue: 5, ApproachQueue: 2, OutQueue: 9, OutOccupancy: 9, Mu: 1}
	if got := gain(OriginalGain, neg); got != 0 {
		t.Errorf("negative pressure gain = %v, want clamp to 0", got)
	}
}

func TestCapacityAwareGain(t *testing.T) {
	full := signaltest.LinkObs{Queue: 50, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}
	if got := gain(CapacityAwareGain, full); got != 0 {
		t.Errorf("full downstream gain = %v, want 0", got)
	}
	l := signaltest.LinkObs{Queue: 9, OutQueue: 4, OutOccupancy: 4, OutCapacity: 120, Mu: 1}
	if got := gain(CapacityAwareGain, l); got != 5 {
		t.Errorf("gain = %v, want 5", got)
	}
	neg := signaltest.LinkObs{Queue: 2, OutQueue: 9, OutOccupancy: 9, OutCapacity: 120, Mu: 1}
	if got := gain(CapacityAwareGain, neg); got != 0 {
		t.Errorf("negative pressure gain = %v, want 0", got)
	}
}

func TestNormalizedCapacityAwareGain(t *testing.T) {
	l := signaltest.LinkObs{Queue: 60, InCapacity: 120, OutQueue: 30, OutOccupancy: 30, OutCapacity: 120, Mu: 2}
	// (60/120 - 30/120) * 2 = 0.5.
	if got := gain(NormalizedCapacityAwareGain, l); got != 0.5 {
		t.Errorf("normalized gain = %v, want 0.5", got)
	}
	full := signaltest.LinkObs{Queue: 60, InCapacity: 120, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}
	if got := gain(NormalizedCapacityAwareGain, full); got != 0 {
		t.Errorf("full downstream normalized gain = %v, want 0", got)
	}
	unboundedOut := signaltest.LinkObs{Queue: 60, InCapacity: 120, OutQueue: 500, OutOccupancy: 500, Mu: 1}
	if got := gain(NormalizedCapacityAwareGain, unboundedOut); got != 0.5 {
		t.Errorf("unbounded-out normalized gain = %v, want 0.5", got)
	}
	unboundedIn := signaltest.LinkObs{Queue: 3, OutQueue: 0, OutOccupancy: 0, OutCapacity: 120, Mu: 1}
	if got := gain(NormalizedCapacityAwareGain, unboundedIn); got != 1 {
		t.Errorf("unbounded-in normalized gain = %v, want 1", got)
	}
}

func TestGainsNonNegativeProperty(t *testing.T) {
	f := func(q, aq, occ uint16, cap uint8) bool {
		l := signaltest.LinkObs{
			Queue:         int32(q % 200),
			ApproachQueue: int32(aq % 200),
			OutQueue:      int32(occ % 200),
			OutOccupancy:  int32(occ % 200),
			OutCapacity:   int32(cap),
			InCapacity:    120,
			Mu:            1,
		}
		return gain(OriginalGain, l) >= 0 && gain(CapacityAwareGain, l) >= 0 && gain(NormalizedCapacityAwareGain, l) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedSlotHoldsPhaseForPeriod(t *testing.T) {
	c, err := NewController("CAP-BP", info2(), CapacityAwareGain, SlotOptions{PeriodSteps: 10, AmberSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 heavy at the boundary.
	heavy1 := [4]int32{20, 20, 0, 0}
	heavy2 := [4]int32{0, 0, 20, 20}
	out := [4]int32{0, 0, 0, 0}
	cur := c.Decide(obs4(0, signal.Amber, heavy1, out))
	if cur != 1 {
		t.Fatalf("first slot phase = %v, want 1", cur)
	}
	// Even though traffic flips immediately, the slot must be held:
	// criticism (i) of the paper.
	for k := 1; k < 10; k++ {
		if got := c.Decide(obs4(k, cur, heavy2, out)); got != 1 {
			t.Fatalf("fixed slot abandoned at step %d: %v", k, got)
		}
	}
	// Boundary at k=10: now phase 2 wins, amber starts.
	if got := c.Decide(obs4(10, 1, heavy2, out)); got != signal.Amber {
		t.Fatal("no amber on phase change")
	}
	for k := 11; k < 14; k++ {
		if got := c.Decide(obs4(k, signal.Amber, heavy2, out)); got != signal.Amber {
			t.Fatalf("amber cut short at %d: %v", k, got)
		}
	}
	if got := c.Decide(obs4(14, signal.Amber, heavy2, out)); got != 2 {
		t.Fatal("phase 2 not started after amber")
	}
	// And the new green period runs 10 slots from 14.
	for k := 15; k < 24; k++ {
		if got := c.Decide(obs4(k, 2, heavy1, out)); got != 2 {
			t.Fatalf("second slot abandoned at %d: %v", k, got)
		}
	}
}

func TestFixedSlotNoAmberWhenPhaseUnchanged(t *testing.T) {
	c, err := NewController("CAP-BP", info2(), CapacityAwareGain,
		SlotOptions{PeriodSteps: 5, AmberSteps: 4, SkipRedundantAmber: true})
	if err != nil {
		t.Fatal(err)
	}
	heavy1 := [4]int32{20, 20, 0, 0}
	out := [4]int32{0, 0, 0, 0}
	cur := signal.Amber
	for k := 0; k < 25; k++ {
		cur = c.Decide(obs4(k, cur, heavy1, out))
		if cur != 1 {
			t.Fatalf("step %d: %v, want uninterrupted phase 1", k, cur)
		}
	}
}

func TestFixedSlotAmberEveryBoundaryByDefault(t *testing.T) {
	c, err := NewController("CAP-BP", info2(), CapacityAwareGain,
		SlotOptions{PeriodSteps: 5, AmberSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	heavy1 := [4]int32{20, 20, 0, 0}
	out := [4]int32{0, 0, 0, 0}
	cur := signal.Amber
	ambers := 0
	for k := 0; k < 50; k++ {
		cur = c.Decide(obs4(k, cur, heavy1, out))
		if cur == signal.Amber {
			ambers++
		}
	}
	if ambers == 0 {
		t.Fatal("default slot semantics produced no amber despite unchanged phase")
	}
}

func TestFixedSlotKeepsCurrentWhenAllGainsZero(t *testing.T) {
	c, err := NewController("CAP-BP", info2(), CapacityAwareGain,
		SlotOptions{PeriodSteps: 3, AmberSteps: 2, SkipRedundantAmber: true})
	if err != nil {
		t.Fatal(err)
	}
	heavy1 := [4]int32{20, 20, 0, 0}
	empty := [4]int32{0, 0, 0, 0}
	out := [4]int32{0, 0, 0, 0}
	cur := c.Decide(obs4(0, signal.Amber, heavy1, out))
	if cur != 1 {
		t.Fatalf("start phase %v", cur)
	}
	// Queues drain; at the next boundaries everything is zero: the
	// controller keeps phase 1 rather than bouncing through amber.
	for k := 1; k < 12; k++ {
		cur = c.Decide(obs4(k, cur, empty, out))
		if cur != 1 {
			t.Fatalf("step %d: %v, want phase 1 held", k, cur)
		}
	}
}

func TestFixedSlotZeroAmberSwitchesDirectly(t *testing.T) {
	c, err := NewController("x", info2(), CapacityAwareGain, SlotOptions{PeriodSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	heavy1 := [4]int32{20, 20, 0, 0}
	heavy2 := [4]int32{0, 0, 20, 20}
	out := [4]int32{0, 0, 0, 0}
	cur := c.Decide(obs4(0, signal.Amber, heavy1, out))
	for k := 1; k < 4; k++ {
		cur = c.Decide(obs4(k, cur, heavy2, out))
	}
	if got := c.Decide(obs4(4, cur, heavy2, out)); got != 2 {
		t.Fatalf("zero-amber switch got %v, want 2", got)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController("x", info2(), nil, SlotOptions{PeriodSteps: 5}); err == nil {
		t.Error("nil gain accepted")
	}
	if _, err := NewController("x", info2(), OriginalGain, SlotOptions{}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewController("x", info2(), OriginalGain, SlotOptions{PeriodSteps: 5, AmberSteps: -1}); err == nil {
		t.Error("negative amber accepted")
	}
	bad := info2()
	bad.Phases = [][]int{{9}}
	if _, err := NewController("x", bad, OriginalGain, SlotOptions{PeriodSteps: 5}); err == nil {
		t.Error("invalid info accepted")
	}
}

func TestFactories(t *testing.T) {
	opts := SlotOptions{PeriodSteps: 16, AmberSteps: 4}
	for _, f := range []signal.Factory{CAPBP(opts), CAPBPNormalized(opts), ORIGBP(opts)} {
		c, err := f.New(info2())
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if c.Name() != f.Name() {
			t.Errorf("controller name %q != factory %q", c.Name(), f.Name())
		}
	}
	bad := SlotOptions{}
	if _, err := CAPBP(bad).New(info2()); err == nil {
		t.Error("factory accepted bad options")
	}
}

// TestOrigVsCapOnFullDownstream: ORIG-BP still scores a link into a full
// road (if whole-road pressure difference is positive), CAP-BP does not —
// the distinction the paper draws between [3] and [4].
func TestOrigVsCapOnFullDownstream(t *testing.T) {
	l := signaltest.LinkObs{Queue: 50, ApproachQueue: 200, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}
	if gain(OriginalGain, l) <= 0 {
		t.Error("ORIG-BP should ignore capacity")
	}
	if gain(CapacityAwareGain, l) != 0 {
		t.Error("CAP-BP should zero a full downstream link")
	}
}
