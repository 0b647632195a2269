package sensing

import (
	"math"
	"testing"

	"utilbp/internal/signal"
)

func truthObs(queue, inTransit, approach, outQueue, outOcc int) signal.LinkObs {
	return signal.LinkObs{
		Queue: int32(queue), InTransit: int32(inTransit), ApproachQueue: int32(approach),
		OutQueue: int32(outQueue), OutOccupancy: int32(outOcc),
		OutCapacity: 120, InCapacity: 120, Mu: 0.5,
	}
}

// senseLink senses one link through Sense: the link's truth and
// observation sit at index link of slabs sized to cover it.
func senseLink(s Sensor, link int, truth, obs *signal.LinkObs, step int) {
	truths := make([]signal.LinkObs, link+1)
	obss := make([]signal.LinkObs, link+1)
	truths[link], obss[link] = *truth, *obs
	s.Sense([]int32{int32(link)}, truths, obss, step)
	*obs = obss[link]
}

func TestPerfectCopiesTruth(t *testing.T) {
	truth := truthObs(7, 3, 12, 5, 40)
	var obs signal.LinkObs
	senseLink(Perfect{}, 0, &truth, &obs, 4)
	if obs != truth {
		t.Fatalf("Perfect obs %+v != truth %+v", obs, truth)
	}
}

func TestLoopDetectorTracksAndSaturates(t *testing.T) {
	ld := NewLoopDetector(LoopDetectorOptions{Saturation: 10})
	ld.Prepare(4)
	ld.Reseed(3)
	var obs signal.LinkObs

	truth := truthObs(6, 2, 6, 0, 0)
	senseLink(ld, 1, &truth, &obs, 0)
	if obs.Queue != 6 || obs.ApproachQueue != 6 {
		t.Fatalf("loop should count 6 crossings exactly, got %+v", obs)
	}
	if obs.InTransit != 0 {
		t.Fatalf("stop-bar detector saw in-transit vehicles: %+v", obs)
	}

	// Growth beyond the zone saturates at 10.
	truth = truthObs(25, 0, 25, 0, 0)
	senseLink(ld, 1, &truth, &obs, 1)
	if obs.Queue != 10 {
		t.Fatalf("saturated queue = %d, want 10", obs.Queue)
	}

	// A positive empty detection resynchronizes to zero.
	truth = truthObs(0, 0, 0, 0, 0)
	senseLink(ld, 1, &truth, &obs, 2)
	if obs.Queue != 0 {
		t.Fatalf("empty resync queue = %d, want 0", obs.Queue)
	}
}

func TestLoopDetectorFailureDrifts(t *testing.T) {
	// FailProb 1: every event is missed, so the estimate never moves off
	// zero no matter how the truth grows.
	ld := NewLoopDetector(LoopDetectorOptions{FailProb: 0.999999})
	ld.Prepare(1)
	ld.Reseed(5)
	var obs signal.LinkObs
	for step := 0; step < 10; step++ {
		truth := truthObs(step+1, 0, step+1, 0, 0)
		senseLink(ld, 0, &truth, &obs, step)
	}
	if obs.Queue != 0 {
		t.Fatalf("all-failing detector reported %d, want 0 (permanent drift)", obs.Queue)
	}
}

func TestConnectedVehicleFullPenetrationExact(t *testing.T) {
	// Rate 1, no noise, alpha 1: the sensor is a pass-through.
	cv := NewConnectedVehicle(ConnectedVehicleOptions{Rate: 1, Alpha: 1})
	cv.Prepare(2)
	cv.Reseed(9)
	truth := truthObs(8, 3, 11, 4, 77)
	var obs signal.LinkObs
	senseLink(cv, 0, &truth, &obs, 0)
	if obs.Queue != 8 || obs.InTransit != 3 || obs.ApproachQueue != 11 || obs.OutQueue != 4 || obs.OutOccupancy != 77 {
		t.Fatalf("full-penetration pass-through diverged: %+v", obs)
	}
}

func TestConnectedVehicleUnbiased(t *testing.T) {
	cv := NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.3, Alpha: 1})
	cv.Prepare(1)
	cv.Reseed(11)
	truth := truthObs(30, 0, 30, 0, 0)
	var obs signal.LinkObs
	sum := 0.0
	const events = 4000
	for step := 0; step < events; step++ {
		senseLink(cv, 0, &truth, &obs, step)
		sum += float64(obs.Queue)
	}
	mean := sum / events
	if math.Abs(mean-30) > 1 {
		t.Fatalf("scaled penetration sampling is biased: mean %.2f, want ~30", mean)
	}
}

func TestConnectedVehicleLatencyHoldsReports(t *testing.T) {
	cv := NewConnectedVehicle(ConnectedVehicleOptions{Rate: 1, LatencySteps: 5, Alpha: 1})
	cv.Prepare(1)
	cv.Reseed(1)
	var obs signal.LinkObs
	truth := truthObs(4, 0, 4, 0, 0)
	senseLink(cv, 0, &truth, &obs, 0) // first report is accepted
	if obs.Queue != 4 {
		t.Fatalf("first report rejected: %+v", obs)
	}
	truth = truthObs(9, 0, 9, 0, 0)
	senseLink(cv, 0, &truth, &obs, 3) // inside the latency window: held
	if obs.Queue != 4 {
		t.Fatalf("report inside latency window accepted: %+v", obs)
	}
	senseLink(cv, 0, &truth, &obs, 5) // window over: the new level lands
	if obs.Queue != 9 {
		t.Fatalf("report after latency window rejected: %+v", obs)
	}
}

func TestSensorReseedReplays(t *testing.T) {
	run := func(s Sensor) []int32 {
		s.Prepare(3)
		s.Reseed(42)
		var got []int32
		var obs signal.LinkObs
		for step := 0; step < 50; step++ {
			truth := truthObs((step*7)%13, step%3, (step*7)%13+2, step%5, step%9)
			senseLink(s, step%3, &truth, &obs, step)
			got = append(got, obs.Queue, obs.ApproachQueue, obs.OutQueue, obs.OutOccupancy)
		}
		return got
	}
	sensors := []Sensor{
		NewLoopDetector(LoopDetectorOptions{FailProb: 0.2}),
		NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.4, NoiseStd: 1.5}),
	}
	for _, s := range sensors {
		first := run(s)
		second := run(s) // Reseed inside run rewinds the same instance
		if len(first) != len(second) {
			t.Fatalf("%s: replay lengths diverged", s.Name())
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: replay diverged at %d: %d vs %d", s.Name(), i, first[i], second[i])
			}
		}
	}
}

func TestEstimators(t *testing.T) {
	if got := expFilter(10, 20, 0.5, false); got != 15 {
		t.Errorf("expFilter(10, 20) = %v, want 15", got)
	}
	if got := expFilter(10, 20, 0.5, true); got != 0 {
		t.Errorf("expFilter empty snap = %v, want 0", got)
	}
	if got := integrateCount(10, 5, 12, false); got != 12 {
		t.Errorf("integrateCount clamp = %v, want 12", got)
	}
	if got := integrateCount(2, -5, 12, false); got != 0 {
		t.Errorf("integrateCount floor = %v, want 0", got)
	}
	if got := integrateCount(7, 3, 12, true); got != 0 {
		t.Errorf("integrateCount resync = %v, want 0", got)
	}
	if got := integrateCount(100, 50, 0, false); got != 150 {
		t.Errorf("unbounded integrateCount = %v, want 150", got)
	}
}

func TestSpecParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"perfect", Spec{}},
		{"loop", Loop()},
		{"loop:40", Spec{Kind: KindLoop, Saturation: 40}},
		{"cv:0.3", CV(0.3)},
		{"CV:1", CV(1)},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String must round-trip through ParseSpec.
		back, err := ParseSpec(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q failed: %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"cv", "cv:0", "cv:1.5", "cv:x", "loop:-3", "radar", "perfect:1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecNewAndValidate(t *testing.T) {
	for _, spec := range []Spec{{}, Loop(), CV(0.5), {Kind: KindLoop, FailProb: 0.1, Saturation: -1}} {
		s, err := spec.New()
		if err != nil {
			t.Errorf("Spec %+v rejected: %v", spec, err)
			continue
		}
		if s == nil {
			t.Errorf("Spec %+v built nil sensor", spec)
		}
	}
	for _, spec := range []Spec{
		CV(0), CV(-0.2), CV(2),
		{Kind: KindConnectedVehicle, Rate: 0.5, NoiseStd: -1},
		{Kind: KindConnectedVehicle, Rate: 0.5, NoiseStd: math.Inf(1)},
		{Kind: KindConnectedVehicle, Rate: 0.5, NoiseStd: math.NaN()},
		{Kind: KindConnectedVehicle, Rate: 0.5, LatencySteps: -1},
		{Kind: KindConnectedVehicle, Rate: 0.5, FilterAlpha: 2},
		{Kind: KindLoop, FailProb: 1},
		{Kind: Kind(99)},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("Spec %+v validated", spec)
		}
	}
}

// TestSensorNamesCarryOptions pins the names the engine's snapshot
// fingerprint compares: a sensor at its defaults keeps its short name,
// and every option that changes what it writes appears, written
// exactly, without Spec.String's rounding, so two sensors that can
// write different observations never share a name.
func TestSensorNamesCarryOptions(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Loop(), "loop"},
		{Spec{Kind: KindLoop, Saturation: DefaultSaturation}, "loop"},
		{Spec{Kind: KindLoop, Saturation: 10, FailProb: 0.3}, "loop:10,fail=0.3"},
		{Spec{Kind: KindLoop, Saturation: -1}, "loop:unsaturated"},
		{Spec{Kind: KindLoop, FailProb: 0.125}, "loop,fail=0.125"},
		{CV(0.4), "cv:0.4"},
		{Spec{Kind: KindConnectedVehicle, Rate: 0.3, FilterAlpha: DefaultCVAlpha}, "cv:0.3"},
		{Spec{Kind: KindConnectedVehicle, Rate: 0.3, NoiseStd: 2, LatencySteps: 5}, "cv:0.3,noise=2,lat=5"},
		{Spec{Kind: KindConnectedVehicle, Rate: 0.125, NoiseStd: 0.25, FilterAlpha: 0.75}, "cv:0.125,noise=0.25,alpha=0.75"},
	} {
		s, err := tc.spec.New()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Name(); got != tc.want {
			t.Errorf("Spec %+v: sensor name %q, want %q", tc.spec, got, tc.want)
		}
	}
	// Spec.String rounds the noise to one decimal; the name does not.
	a, _ := Spec{Kind: KindConnectedVehicle, Rate: 0.3, NoiseStd: 1.01}.New()
	b, _ := Spec{Kind: KindConnectedVehicle, Rate: 0.3, NoiseStd: 1.04}.New()
	if a.Name() == b.Name() {
		t.Fatalf("noise 1.01 and 1.04 share the name %q", a.Name())
	}
}

// TestCVEstimatesSaturate pins the range of a connected-vehicle
// reading: however wild the noise, every count the sensor writes lies
// in [0, MaxInt32]. Spec.Validate rejects an infinite noise std, but
// NewConnectedVehicle takes its options as given, so both an infinite
// std and a finite one far past the int32 range are sensed here.
func TestCVEstimatesSaturate(t *testing.T) {
	for _, noise := range []float64{math.Inf(1), 1e12} {
		cv := NewConnectedVehicle(ConnectedVehicleOptions{Rate: 0.3, NoiseStd: noise})
		cv.Prepare(1)
		cv.Reseed(3)
		var obs signal.LinkObs
		saturated := false
		for step := 0; step < 40; step++ {
			truth := truthObs(7, 3, 12, 5, 40)
			senseLink(cv, 0, &truth, &obs, step)
			for _, c := range []int32{obs.Queue, obs.InTransit, obs.ApproachQueue, obs.OutQueue, obs.OutOccupancy} {
				if c < 0 {
					t.Fatalf("noise std %g, step %d: negative count in %+v", noise, step, obs)
				}
				saturated = saturated || c == math.MaxInt32
			}
		}
		if !saturated {
			t.Errorf("noise std %g: no reading saturated at MaxInt32", noise)
		}
	}
}

func TestSensingStreamIndependentOfLabelSiblings(t *testing.T) {
	// The sensing stream must differ from the demand and router streams
	// of the same seed (independent named splits of one root).
	root := sensingStream(7)
	if root == nil {
		t.Fatal("nil sensing stream")
	}
	a, b := sensingStream(7), sensingStream(7)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("sensing stream is not a pure function of the seed")
		}
	}
}
