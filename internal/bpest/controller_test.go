package bpest

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"utilbp/internal/signal"
	"utilbp/internal/signal/signaltest"
)

// oracleGain is BP-EST's estimated-routing gain written case by case,
// the body it had before it ran UTIL-BP's compiled eq. (8): beta when
// the outgoing road is full, alpha when the lane is empty, otherwise
// the lane queue against the routing-rate-weighted downstream movement
// queues, shifted by W*.
func oracleGain(ratios [signal.NumTurns]float64, l *signal.LinkObs, alpha, beta float64, wStar int) float64 {
	if l.OutFull() {
		return beta
	}
	if l.Queue == 0 {
		return alpha
	}
	down := 0.0
	for t := 0; t < signal.NumTurns; t++ {
		down += ratios[t] * float64(l.OutTurnQueue[t])
	}
	return (float64(l.Queue) - down + float64(wStar)) * l.Mu
}

// randomCount draws a count that is often 0 or MaxInt32, small
// otherwise, and anywhere in [0, MaxInt32] now and then.
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

// TestWeighLinkMatchesOracle drives BP-EST's WeighLink and a twin
// estimator through the same random join streams and observations, and
// checks every gain bit for bit against oracleGain: the paper's and
// extreme α, β and W*, counts of 0 and MaxInt32, unbounded outgoing
// roads, and µ of 0 and subnormal.
func TestWeighLinkMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 9))
	params := []struct {
		alpha, beta float64
		wStar       int
	}{
		{-1, -2, 120},
		{-2, -1, 1},
		{-math.MaxFloat64, -math.SmallestNonzeroFloat64, 0},
		{math.Inf(-1), -0.5, math.MaxInt32},
		{-0.25, math.Inf(-1), math.MaxInt},
	}
	for _, p := range params {
		const links = 8
		info := signal.JunctionInfo{Label: "J", NumLinks: links, Phases: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, WStar: p.wStar, DeltaT: 1}
		c, err := New(info, Options{Alpha: 0.2, GainAlpha: p.alpha, GainBeta: p.beta})
		if err != nil {
			t.Fatal(err)
		}
		twins := make([]TurnRatioEstimator, links)
		for i := range twins {
			twins[i] = NewTurnRatioEstimator(0.2)
		}
		var obs [links]signal.LinkObs
		for step := 0; step < 2000; step++ {
			for li := range obs {
				l := &obs[li]
				l.Queue, l.OutQueue = randomCount(r), randomCount(r)
				l.OutOccupancy, l.OutCapacity = randomCount(r), randomCount(r)
				if r.IntN(4) == 0 {
					l.OutOccupancy = l.OutCapacity
				}
				l.Mu = [...]float64{0, math.SmallestNonzeroFloat64, 0.5, 1, r.Float64()}[r.IntN(5)]
				for turn := range l.OutTurnQueue {
					l.OutTurnQueue[turn] = randomCount(r)
					l.OutTurnJoins[turn] += r.Int32N(3)
				}
				twins[li].Observe(l.OutTurnJoins)
				want := math.Float64bits(oracleGain(twins[li].Ratios(), l, p.alpha, p.beta, p.wStar))
				if got := math.Float64bits(c.WeighLink(li, l)); got != want {
					t.Fatalf("%+v step %d link %d: WeighLink %v, oracle %v for %+v",
						p, step, li, math.Float64frombits(got), math.Float64frombits(want), *l)
				}
			}
		}
	}
}

// TestBatchBuiltHoldsNoScratch checks that a controller built for the
// weighted batch allocates no Decide scratch, neither its own nor its
// Algorithm 1 tail's: the batch hands it its window of the shared
// weight slab.
func TestBatchBuiltHoldsNoScratch(t *testing.T) {
	for j, bc := range signaltest.WeightedBatchControllers(t, Factory(Options{})) {
		c := bc.(*Controller)
		if c.gains != nil {
			t.Fatalf("batch-built controller %d holds %d gains", j, len(c.gains))
		}
		if !reflect.ValueOf(c.tail).Elem().FieldByName("gains").IsNil() {
			t.Fatalf("batch-built controller %d's tail holds gains", j)
		}
	}
}
