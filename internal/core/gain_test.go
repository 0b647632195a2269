package core

import (
	"math"
	"testing"
	"testing/quick"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

func TestLinkGainSpecialCases(t *testing.T) {
	p := Params{Alpha: -1, Beta: -2, WStar: 120}
	full := signaltest.LinkObs{Queue: 10, OutOccupancy: 50, OutCapacity: 50, Mu: 1}
	if got := gainOf(&full, p, GainVariant{}); got != -2 {
		t.Errorf("full outgoing road gain = %v, want beta=-2", got)
	}
	empty := signaltest.LinkObs{Queue: 0, OutQueue: 10, OutOccupancy: 10, OutCapacity: 50, Mu: 1}
	if got := gainOf(&empty, p, GainVariant{}); got != -1 {
		t.Errorf("empty incoming lane gain = %v, want alpha=-1", got)
	}
	// The full-outgoing case takes precedence over the empty-incoming
	// case, per eq. (8)'s ordering.
	both := signaltest.LinkObs{Queue: 0, OutOccupancy: 50, OutCapacity: 50, Mu: 1}
	if got := gainOf(&both, p, GainVariant{}); got != -2 {
		t.Errorf("full+empty gain = %v, want beta=-2", got)
	}
}

func TestLinkGainFormula(t *testing.T) {
	p := Params{Alpha: -1, Beta: -2, WStar: 120}
	// eq. (6): (b_i^{i'} - b_{i'} + W*)·µ.
	l := signaltest.LinkObs{Queue: 7, OutQueue: 30, OutOccupancy: 30, OutCapacity: 120, Mu: 2}
	want := (7.0 - 30.0 + 120.0) * 2
	if got := gainOf(&l, p, GainVariant{}); got != want {
		t.Errorf("gain = %v, want %v", got, want)
	}
	// Negative pressure difference still yields a positive gain thanks
	// to the W* shift — the paper's utilization mechanism.
	neg := signaltest.LinkObs{Queue: 3, OutQueue: 100, OutOccupancy: 100, OutCapacity: 120, Mu: 1}
	if got := gainOf(&neg, p, GainVariant{}); got <= 0 {
		t.Errorf("negative-pressure gain = %v, want positive", got)
	}
}

// TestLinkGainAlwaysPositiveWhenServiceable verifies the key ordering of
// eq. (8)/(9): a link that can actually move a vehicle (non-empty lane,
// non-full outgoing road) always outranks the special cases.
func TestLinkGainAlwaysPositiveWhenServiceable(t *testing.T) {
	p := Params{Alpha: -1, Beta: -2, WStar: 120}
	f := func(q uint16, occ uint16, mu uint8) bool {
		queue := int32(q%120) + 1        // >= 1
		outOcc := int32(occ % 120)       // < capacity
		rate := float64(mu%4)/2.0 + 0.25 // 0.25..1.75
		l := signaltest.LinkObs{
			Queue: queue, OutQueue: outOcc, OutOccupancy: outOcc, OutCapacity: 120,
			InCapacity: 120, Mu: rate,
		}
		g := gainOf(&l, p, GainVariant{})
		return g > 0 && g > p.Alpha && g > p.Beta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkGainMonotonicInQueue(t *testing.T) {
	p := Params{Alpha: -1, Beta: -2, WStar: 120}
	prev := math.Inf(-1)
	for q := int32(1); q <= 120; q++ {
		l := signaltest.LinkObs{Queue: q, OutQueue: 40, OutOccupancy: 40, OutCapacity: 120, Mu: 1}
		g := gainOf(&l, p, GainVariant{})
		if g <= prev {
			t.Fatalf("gain not strictly increasing at queue %d: %v <= %v", q, g, prev)
		}
		prev = g
	}
}

func TestLinkGainVariants(t *testing.T) {
	p := Params{Alpha: -1, Beta: -2, WStar: 120}
	l := signaltest.LinkObs{Queue: 5, ApproachQueue: 40, OutQueue: 30, OutOccupancy: 30, OutCapacity: 120, Mu: 1}

	// A4: whole-road pressure uses q_i instead of q_i^{i'}.
	whole := gainOf(&l, p, GainVariant{WholeRoadPressure: true})
	if want := (40.0 - 30.0 + 120.0) * 1; whole != want {
		t.Errorf("whole-road gain = %v, want %v", whole, want)
	}

	// A1: no W* shift clamps at zero.
	neg := signaltest.LinkObs{Queue: 5, OutQueue: 30, OutOccupancy: 30, OutCapacity: 120, Mu: 1}
	if got := gainOf(&neg, p, GainVariant{NoWStarShift: true}); got != 0 {
		t.Errorf("no-shift negative gain = %v, want 0", got)
	}
	pos := signaltest.LinkObs{Queue: 50, OutQueue: 30, OutOccupancy: 30, OutCapacity: 120, Mu: 1}
	if got := gainOf(&pos, p, GainVariant{NoWStarShift: true}); got != 20 {
		t.Errorf("no-shift positive gain = %v, want 20", got)
	}

	// A3: no special cases scores full/empty links by the formula.
	full := signaltest.LinkObs{Queue: 10, OutQueue: 120, OutOccupancy: 120, OutCapacity: 120, Mu: 1}
	if got := gainOf(&full, p, GainVariant{NoSpecialCases: true}); got != 10 {
		t.Errorf("no-special full gain = %v, want 10", got)
	}
	empty := signaltest.LinkObs{Queue: 0, OutQueue: 0, OutOccupancy: 0, OutCapacity: 120, Mu: 1}
	if got := gainOf(&empty, p, GainVariant{NoSpecialCases: true}); got != 120 {
		t.Errorf("no-special empty gain = %v, want 120", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Alpha: -1, Beta: -2, WStar: 120}).Validate(); err != nil {
		t.Errorf("paper params rejected: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Beta: -2, WStar: 1},
		{Alpha: -1, Beta: 0, WStar: 1},
		{Alpha: 1, Beta: -2, WStar: 1},
		{Alpha: -1, Beta: -2, WStar: -1},
		{Alpha: math.NaN(), Beta: -2, WStar: 1},
		{Alpha: -1, Beta: math.NaN(), WStar: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
	// beta > alpha is allowed: "beta can also be larger than alpha,
	// depending on the characteristics of the entire traffic network".
	if err := (Params{Alpha: -2, Beta: -1, WStar: 1}).Validate(); err != nil {
		t.Errorf("beta > alpha rejected: %v", err)
	}
}

func TestPhaseGains(t *testing.T) {
	gains := []float64{5, -1, 3, -2}
	phase := []int{0, 2, 3}
	if gmax, link, total := PhaseGains(gains, phase); gmax != 5 || link != 0 || total != 6 {
		t.Errorf("PhaseGains = %v/%d/%v, want 5/0/6", gmax, link, total)
	}
	if g, l, total := PhaseGains(gains, nil); g != 0 || l != -1 || total != 0 {
		t.Errorf("empty phase = %v/%d/%v", g, l, total)
	}
	// All-negative phases still report their (negative) max.
	if gmax, link, total := PhaseGains(gains, []int{1, 3}); gmax != -1 || link != 1 || total != -3 {
		t.Errorf("negative PhaseGains = %v/%d/%v, want -1/1/-3", gmax, link, total)
	}
	// A tie keeps the first maximizing link, and the total sums in
	// phase order: 1e16+1 rounds to 1e16, so the order below gives 0
	// where summing 1 last would give 1.
	if gmax, link, total := PhaseGains([]float64{1e16, 1, -1e16, 1e16}, []int{0, 1, 2, 3}); gmax != 1e16 || link != 0 || total != 1e16 {
		t.Errorf("PhaseGains = %v/%d/%v, want 1e16/0/1e16", gmax, link, total)
	}
	if _, _, total := PhaseGains([]float64{1e16, 1, -1e16}, []int{0, 1, 2}); total != 0 {
		t.Errorf("total = %v, want 0: the sum must run in phase order", total)
	}
}

// TestGainsBufferReuse pins Weigh's contract: it writes the eq. (8)
// gains into the caller's slice in place, which is how a rule fills
// the scratch window the batched controller hands it, and a link's gain
// does not depend on the window it is weighed in.
func TestGainsBufferReuse(t *testing.T) {
	links := []signaltest.LinkObs{
		{Queue: 1, OutCapacity: 10, Mu: 1},
		{Queue: 0, OutCapacity: 10, Mu: 1},
	}
	info := signal.JunctionInfo{Label: "J", NumLinks: 2, Phases: [][]int{{0}, {1}}, WStar: 10, DeltaT: 1}
	c, err := New(info, Options{})
	if err != nil {
		t.Fatal(err)
	}
	table, rows := signaltest.Pairs(links...)
	buf := []float64{7, 7, 7}
	c.Weigh(table, rows, buf[:2])
	if buf[0] != 11 || buf[1] != -1 || buf[2] != 7 {
		t.Errorf("Weigh wrote %v, want [11 -1 7] (gain, alpha, untouched)", buf)
	}
	one := []float64{7}
	c.Weigh(table[1:2], rows, one)
	if one[0] != buf[1] {
		t.Errorf("Weigh of link 1 alone wrote %v, of the window %v", one[0], buf[1])
	}
}
