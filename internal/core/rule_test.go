package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

// gainOf is eq. (8) through the compiled rule, as Weigh evaluates it,
// for the link l scripts.
func gainOf(l *signaltest.LinkObs, p Params, v GainVariant) float64 {
	r := compile(p, v)
	table, rows := signaltest.Pairs(*l)
	in, out := &rows[table[0].In], &rows[table[0].Out]
	lane, pin := r.counts(in, table[0].Turn)
	return r.Gain(out, l.Mu, lane, pin, float64(out.Total))
}

// oracleGain is eq. (8) written case by case, with one branch per
// special scenario and per variant switch: the body the link gain had
// before it was compiled into a Rule. TestRuleMatchesOracle holds the
// kernel to it bit for bit.
func oracleGain(l *signaltest.LinkObs, p Params, v GainVariant) float64 {
	laneQueue := int(l.Queue)
	if v.CountApproaching {
		laneQueue += int(l.InTransit)
	}
	if !v.NoSpecialCases {
		if l.OutCapacity > 0 && l.OutOccupancy >= l.OutCapacity {
			return p.Beta
		}
		if laneQueue == 0 {
			return p.Alpha
		}
	}
	in := float64(laneQueue)
	if v.WholeRoadPressure {
		in = float64(l.ApproachQueue)
	}
	pressure := in - float64(l.OutQueue)
	if v.NoWStarShift {
		g := pressure * l.Mu
		if g < 0 {
			return 0
		}
		return g
	}
	return (pressure + float64(p.WStar)) * l.Mu
}

// allVariants lists the 16 combinations of the four GainVariant
// switches.
func allVariants() []GainVariant {
	vs := make([]GainVariant, 0, 16)
	for m := 0; m < 16; m++ {
		vs = append(vs, GainVariant{
			WholeRoadPressure: m&1 != 0,
			NoWStarShift:      m&2 != 0,
			NoSpecialCases:    m&4 != 0,
			CountApproaching:  m&8 != 0,
		})
	}
	return vs
}

// randomCount draws a count that is 0, 1, MaxInt32 or near it a third
// of the time, small otherwise, and anywhere in [0, MaxInt32] now and
// then.
func randomCount(r *rand.Rand) int32 {
	switch r.IntN(8) {
	case 0:
		return [...]int32{0, 1, math.MaxInt32 - 1, math.MaxInt32}[r.IntN(4)]
	case 1:
		return r.Int32()
	case 2:
		return 0
	default:
		return r.Int32N(64)
	}
}

// randomLink draws an observation for the property tests: capacities
// of 0 (unbounded) and of MaxInt32, occupancies at and past capacity,
// and µ of 0, subnormal, ordinary and huge.
func randomLink(r *rand.Rand) signaltest.LinkObs {
	l := signaltest.LinkObs{
		Queue:         randomCount(r),
		InTransit:     randomCount(r),
		ApproachQueue: randomCount(r),
		OutQueue:      randomCount(r),
		OutOccupancy:  randomCount(r),
		OutCapacity:   randomCount(r),
		InCapacity:    randomCount(r),
		Mu: [...]float64{0, math.SmallestNonzeroFloat64, 0x1p-1040, 0.5, 1, 2.75, 1e300,
			r.Float64(), r.ExpFloat64()}[r.IntN(9)],
	}
	if r.IntN(4) == 0 {
		l.OutOccupancy = l.OutCapacity
	}
	for t := range l.OutTurnQueue {
		l.OutTurnQueue[t] = randomCount(r)
		l.OutTurnJoins[t] = randomCount(r)
	}
	return l
}

// ruleParams are the parameter sets of the property tests: the
// paper's, α and β reversed, extreme negative gains and extreme W*.
var ruleParams = []Params{
	{Alpha: -1, Beta: -2, WStar: 120},
	{Alpha: -2, Beta: -1, WStar: 1},
	{Alpha: -math.MaxFloat64, Beta: -math.SmallestNonzeroFloat64, WStar: 0},
	{Alpha: -math.SmallestNonzeroFloat64, Beta: math.Inf(-1), WStar: math.MaxInt32},
	{Alpha: math.Inf(-1), Beta: -math.MaxFloat64, WStar: 1<<53 + 1},
	{Alpha: -0.5, Beta: -0.25, WStar: math.MaxInt},
}

// ruleEdges are observations a random draw reaches only by chance: a
// full road over an empty lane, a lane count past MaxInt32 under
// CountApproaching, an unbounded road at MaxInt32 occupancy, a deficit
// at µ = 0, whose A1 gain is −0, a subnormal µ, and a balanced link.
var ruleEdges = []signaltest.LinkObs{
	{Queue: 0, OutOccupancy: 5, OutCapacity: 5, Mu: 1},
	{Queue: 0, OutOccupancy: math.MaxInt32, OutCapacity: math.MaxInt32, Mu: 1},
	{Queue: math.MaxInt32, InTransit: math.MaxInt32, OutQueue: 3, Mu: 0.5},
	{Queue: 2, OutQueue: 7, OutCapacity: 0, OutOccupancy: math.MaxInt32, Mu: 1},
	{Queue: 3, OutQueue: 5, Mu: 0},
	{Queue: 3, OutQueue: 5, Mu: math.SmallestNonzeroFloat64},
	{Queue: 5, OutQueue: 5, Mu: 1},
}

// TestRuleMatchesOracle checks the compiled kernel bit for bit against
// oracleGain, across all 16 variant combinations and every ruleParams
// set, through Weigh over a slab and through Weigh over each link
// alone, on ruleEdges and random observations.
func TestRuleMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 8))
	links := append([]signaltest.LinkObs(nil), ruleEdges...)
	for len(links) < 4096 {
		links = append(links, randomLink(r))
	}
	table, rows := signaltest.Pairs(links...)
	gains := make([]float64, len(links))
	var one [1]float64
	for _, p := range ruleParams {
		info := signal.JunctionInfo{Label: "J", NumLinks: len(links), Phases: [][]int{{0}}, WStar: p.WStar, DeltaT: 1}
		for _, v := range allVariants() {
			c, err := New(info, Options{Alpha: p.Alpha, Beta: p.Beta, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			c.Weigh(table, rows, gains)
			for i := range links {
				want := math.Float64bits(oracleGain(&links[i], p, v))
				if got := math.Float64bits(gains[i]); got != want {
					t.Fatalf("%+v %+v: Weigh gave %v for %+v, oracle %v",
						p, v, gains[i], links[i], math.Float64frombits(want))
				}
				c.Weigh(table[i:i+1], rows, one[:])
				if got := math.Float64bits(one[0]); got != want {
					t.Fatalf("%+v %+v: Weigh of the link alone gave %v for %+v, oracle %v",
						p, v, one[0], links[i], math.Float64frombits(want))
				}
			}
		}
	}
}

// TestControllerSize pins the controller's size: every Reset rebuilds
// every controller, so a wider one costs memory on every replay.
func TestControllerSize(t *testing.T) {
	if got := unsafe.Sizeof(Controller{}); got > 176 {
		t.Fatalf("core.Controller is %d bytes, want at most 176", got)
	}
}

// TestBatchBuiltHoldsNoScratch checks that a controller built for the
// weighted batch allocates no Decide scratch: the batch hands it a
// window of its shared scratch. A per-junction Decide allocates
// its own on first use.
func TestBatchBuiltHoldsNoScratch(t *testing.T) {
	built := signaltest.WeightedBatchControllers(t, Factory(Options{}))
	for j, bc := range built {
		if c := bc.(*Controller); c.gains != nil {
			t.Fatalf("batch-built controller %d holds %d gains", j, len(c.gains))
		}
	}
	c := built[0].(*Controller)
	obs := obsWith(0, signal.Amber, [4]int32{0, 0, 9, 4}, [4]int32{0, 0, 0, 0})
	c.Decide(obs)
	if len(c.gains) != len(obs.Links) {
		t.Fatalf("Decide left %d gains for %d links", len(c.gains), len(obs.Links))
	}
}
