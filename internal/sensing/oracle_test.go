// Oracle pins for the one-call Sense path: the per-link SenseLink
// bodies the sensors had before Sense took a step's links in one call —
// the connected-vehicle reading a per-field Binomial loop of
// Float64() < p trials, the loop detector and the estimators folded
// through Sample values — kept here as test oracles. Every sensor must
// match its oracle exactly over random truth sequences: the same
// observations, the same rng state and the same snapshot bytes.
package sensing

import (
	"bytes"
	"fmt"
	"testing"

	"utilbp/internal/rng"
	"utilbp/internal/snap"
)

// oracleBinomial is the Bernoulli summation Binomial used to run: one
// Float64 per trial, degenerate parameters draw-free.
func oracleBinomial(r *rng.Source, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	k := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}

// oracleSample is the estimator input the sensors used to build per
// field.
type oracleSample struct {
	Level, Delta float64
	Empty        bool
}

// oracleExpFilter and oracleCountIntegrator are the estimators as they
// were written behind the Estimator interface.
func oracleExpFilter(alpha, est float64, s oracleSample) float64 {
	if s.Empty {
		return 0
	}
	return est + alpha*(s.Level-est)
}

func oracleCountIntegrator(max, est float64, s oracleSample) float64 {
	if s.Empty {
		return 0
	}
	est += s.Delta
	if est < 0 {
		est = 0
	}
	if max > 0 && est > max {
		est = max
	}
	return est
}

// oraclePerfect is Perfect's per-link body.
func oraclePerfect(_ Sensor, _ int, truth, obs *linkObs, _ int) {
	obs.Queue, obs.InTransit, obs.ApproachQueue = truth.Queue, truth.InTransit, truth.ApproachQueue
	obs.OutQueue, obs.OutOccupancy = truth.OutQueue, truth.OutOccupancy
}

// oracleLoop is LoopDetector's per-link body, its default estimator
// bounded by the saturation.
func oracleLoop(s Sensor, link int, truth, obs *linkObs, _ int) {
	ld := s.(*LoopDetector)
	max := 0.0
	if ld.opts.Saturation > 0 {
		max = float64(ld.opts.Saturation)
	}
	st := &ld.links[link]
	failed := ld.src.Bool(ld.opts.FailProb)
	tf := scriptedFields(truth)
	for f := range tf {
		delta := tf[f] - int(st.last[f])
		st.last[f] = int32(tf[f])
		if failed || f == fInTransit {
			continue
		}
		level := tf[f]
		if ld.opts.Saturation > 0 && level > ld.opts.Saturation {
			level = ld.opts.Saturation
		}
		st.est[f] = oracleCountIntegrator(max, st.est[f], oracleSample{
			Level: float64(level),
			Delta: float64(delta),
			Empty: tf[f] == 0,
		})
	}
	writeScripted(obs, &st.est)
	obs.InTransit = 0
}

// oracleCV is ConnectedVehicle's per-link body.
func oracleCV(s Sensor, link int, truth, obs *linkObs, step int) {
	cv := s.(*ConnectedVehicle)
	st := &cv.links[link]
	if cv.opts.LatencySteps > 0 && st.lastReport >= 0 && step-int(st.lastReport) < cv.opts.LatencySteps {
		return
	}
	st.lastReport = int32(step)
	tf := scriptedFields(truth)
	for f := range tf {
		seen := oracleBinomial(cv.src, tf[f], cv.opts.Rate)
		level := float64(seen) / cv.opts.Rate
		if cv.opts.NoiseStd > 0 {
			level += cv.src.Norm() * cv.opts.NoiseStd
		}
		if level < 0 {
			level = 0
		}
		st.est[f] = oracleExpFilter(cv.opts.Alpha, st.est[f], oracleSample{
			Level: level,
			Delta: level - st.est[f],
			Empty: tf[f] == 0 && seen == 0 && cv.opts.Rate >= 1,
		})
	}
	writeScripted(obs, &st.est)
}

// scriptedFields is truthFields of a scripted link: its five sensed
// fields, widened.
func scriptedFields(o *linkObs) [numFields]int {
	return [numFields]int{int(o.Queue), int(o.InTransit), int(o.ApproachQueue), int(o.OutQueue), int(o.OutOccupancy)}
}

// writeScripted is writeFields into a scripted link.
func writeScripted(o *linkObs, est *[numFields]float64) {
	o.Queue = roundCount(est[fQueue])
	o.InTransit = roundCount(est[fInTransit])
	o.ApproachQueue = roundCount(est[fApproach])
	o.OutQueue = roundCount(est[fOutQueue])
	o.OutOccupancy = roundCount(est[fOutOcc])
}

// oracleFunc senses one link the old way, on the state of s.
type oracleFunc func(s Sensor, link int, truth, obs *linkObs, step int)

// oracleOutage wraps an inner oracle with the outage wrapper's per-link
// body.
func oracleOutage(inner oracleFunc) oracleFunc {
	return func(s Sensor, link int, truth, obs *linkObs, step int) {
		o := s.(*outageSensor)
		for i := range o.windows {
			if o.windows[i].covers(link, step) {
				if o.windows[i].Mode == OutageBlank {
					obs.Queue = 0
					obs.InTransit = 0
					obs.ApproachQueue = 0
					obs.OutQueue = 0
					obs.OutOccupancy = 0
				}
				return
			}
		}
		inner(o.inner, link, truth, obs, step)
	}
}

// sensorState is a sensor's snapshot bytes, nil for a stateless one.
func sensorState(s Sensor) []byte {
	ss, ok := s.(snap.Snapshotter)
	if !ok {
		return nil
	}
	w := snap.NewWriter(0)
	ss.SnapshotState(w)
	return w.Bytes()
}

// randomTruth fills the dynamic fields of every link with queue-like
// counts: mostly road-sized, some zero, and on rare links large enough
// that one link's trials overflow the kernel's scratch.
func randomTruth(r *rng.Source, truth []linkObs) {
	for i := range truth {
		hi := 121
		if r.Intn(40) == 0 {
			hi = 700
		}
		field := func() int32 {
			if r.Intn(6) == 0 {
				return 0
			}
			return int32(r.Intn(hi))
		}
		truth[i] = linkObs{
			Queue:         field(),
			InTransit:     field() / 4,
			ApproachQueue: field(),
			OutQueue:      field(),
			OutOccupancy:  field(),
			OutCapacity:   120,
			InCapacity:    120,
			Mu:            0.5,
		}
	}
}

// randomLinks returns a random subset of [0, n) in random order, each
// index at most once, as the engine's refresh order lists them.
func randomLinks(r *rng.Source, n int) []int32 {
	var links []int32
	for _, l := range r.Perm(n) {
		if r.Intn(3) != 0 {
			links = append(links, int32(l))
		}
	}
	return links
}

// checkAgainstOracle drives sensor a through Sense and its twin b
// through the oracle, link by link, over the same random truth
// sequence, and fails on the first difference in observations, rng
// state or snapshot bytes.
func checkAgainstOracle(t *testing.T, a, b Sensor, oracle oracleFunc, seed uint64) {
	t.Helper()
	const nlinks, steps = 96, 120
	for _, s := range []Sensor{a, b} {
		s.Prepare(nlinks)
		s.Reseed(seed)
	}
	r := rng.New(seed)
	truth := make([]linkObs, nlinks)
	obsA := make([]linkObs, nlinks)
	obsB := make([]linkObs, nlinks)
	for step := 0; step < steps; step++ {
		randomTruth(r, truth)
		links := randomLinks(r, nlinks)
		senseLinks(a, links, truth, obsA, step)
		for _, l := range links {
			oracle(b, int(l), &truth[l], &obsB[l], step)
		}
		for l := range obsA {
			if obsA[l] != obsB[l] {
				t.Fatalf("step %d link %d: Sense %+v, oracle %+v", step, l, obsA[l], obsB[l])
			}
		}
		if !bytes.Equal(sensorState(a), sensorState(b)) {
			t.Fatalf("step %d: snapshot bytes differ from the oracle's", step)
		}
	}
}

// TestSenseMatchesPerLinkOracle pins every sensor's Sense to the
// per-link body it replaced: Perfect, LoopDetector and the
// connected-vehicle kernel and its sequential paths (noise, latency,
// rate 1, links beyond the kernel's scratch).
func TestSenseMatchesPerLinkOracle(t *testing.T) {
	tenth, fifth := 0.1, 0.2 // variables: their sum is rounded, 0.30000000000000004
	cvCases := []ConnectedVehicleOptions{
		{Rate: 0.3},
		{Rate: 0.05},
		{Rate: tenth + fifth},
		{Rate: 1 - 0x1p-53},
		{Rate: 0.3, Alpha: 1},
		{Rate: 0.3, LatencySteps: 3},
		{Rate: 0.4, NoiseStd: 1.5},
		{Rate: 0.4, NoiseStd: 1.5, LatencySteps: 2},
		{Rate: 1},
		{Rate: 1, NoiseStd: 2, LatencySteps: 2},
	}
	for _, opts := range cvCases {
		t.Run(fmt.Sprintf("cv/%+v", opts), func(t *testing.T) {
			checkAgainstOracle(t, NewConnectedVehicle(opts), NewConnectedVehicle(opts), oracleCV, 11)
		})
	}
	for _, opts := range []LoopDetectorOptions{
		{},
		{FailProb: 0.2},
		{Saturation: 10},
		{Saturation: -1, FailProb: 0.05},
	} {
		t.Run(fmt.Sprintf("loop/%+v", opts), func(t *testing.T) {
			checkAgainstOracle(t, NewLoopDetector(opts), NewLoopDetector(opts), oracleLoop, 12)
		})
	}
	t.Run("perfect", func(t *testing.T) {
		checkAgainstOracle(t, Perfect{}, Perfect{}, oraclePerfect, 13)
	})
}

// TestCVKernelOverflowLink pins the kernel's scratch bound: a step
// whose single link carries more trials than one bulk draw covers, in
// between ordinary links, still reads and draws exactly as the oracle.
func TestCVKernelOverflowLink(t *testing.T) {
	opts := ConnectedVehicleOptions{Rate: 0.3}
	a, b := NewConnectedVehicle(opts), NewConnectedVehicle(opts)
	for _, s := range []*ConnectedVehicle{a, b} {
		s.Prepare(4)
		s.Reseed(5)
	}
	truth := []linkObs{
		truthObs(30, 4, 60, 20, 80),
		truthObs(cvChunk, 3, cvChunk/2, 1, cvChunk), // alone over the bound
		truthObs(0, 0, 0, 0, 0),
		truthObs(100, 10, 120, 120, 120),
	}
	obsA := make([]linkObs, len(truth))
	obsB := make([]linkObs, len(truth))
	links := []int32{3, 1, 2, 0}
	for step := 0; step < 3; step++ {
		senseLinks(a, links, truth, obsA, step)
		for _, l := range links {
			oracleCV(b, int(l), &truth[l], &obsB[l], step)
		}
		for l := range obsA {
			if obsA[l] != obsB[l] {
				t.Fatalf("step %d link %d: Sense %+v, oracle %+v", step, l, obsA[l], obsB[l])
			}
		}
		if a.src.State() != b.src.State() {
			t.Fatalf("step %d: rng state differs from the oracle's", step)
		}
	}
}

// TestOutageSenseMatchesPerLinkOracle pins the outage wrapper, in blank
// and freeze modes, over the three sensor families: covered links
// never reach the inner sensor, the rest reach it in order.
func TestOutageSenseMatchesPerLinkOracle(t *testing.T) {
	const nlinks = 96
	mark := make([]bool, nlinks)
	for l := range mark {
		mark[l] = l%3 == 0 || l > 80
	}
	inners := []struct {
		name   string
		mk     func() Sensor
		oracle oracleFunc
	}{
		{"cv", func() Sensor { return NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.3}) }, oracleCV},
		{"cv-noise-latency", func() Sensor {
			return NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.5, NoiseStd: 1, LatencySteps: 2})
		}, oracleCV},
		{"loop", func() Sensor { return NewLoopDetector(LoopDetectorOptions{FailProb: 0.1}) }, oracleLoop},
		{"perfect", func() Sensor { return Perfect{} }, oraclePerfect},
	}
	for _, mode := range []OutageMode{OutageBlank, OutageFreeze} {
		windows := []OutageWindow{
			{StartStep: 10, EndStep: 40, Mode: mode, Links: mark},
			{StartStep: 30, EndStep: 70, Mode: OutageBlank, Links: mark[:40]},
		}
		for _, in := range inners {
			t.Run(mode.String()+"/"+in.name, func(t *testing.T) {
				checkAgainstOracle(t, Outage(in.mk(), windows), Outage(in.mk(), windows), oracleOutage(in.oracle), 17)
			})
		}
	}
}

// TestCVAlphaFromSpec pins the filter gain the kernel reads: zero
// applies DefaultCVAlpha, and a spec's FilterAlpha reaches the sensor.
func TestCVAlphaFromSpec(t *testing.T) {
	cv := NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.3})
	if cv.opts.Alpha != DefaultCVAlpha {
		t.Fatalf("default alpha %v, want %v", cv.opts.Alpha, DefaultCVAlpha)
	}
	spec := Spec{Kind: KindConnectedVehicle, Rate: 0.3, FilterAlpha: 0.25}
	s, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*ConnectedVehicle).opts.Alpha; got != 0.25 {
		t.Fatalf("spec filter alpha %v reached the sensor as %v", spec.FilterAlpha, got)
	}
}
