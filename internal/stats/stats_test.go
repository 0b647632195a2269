package stats

import (
	"math"
	"testing"
	"testing/quick"

	"utilbp/internal/vehicle"
)

func veh(wait float64, entered, exited float64) vehicle.Vehicle {
	return vehicle.Vehicle{QueueWait: wait, EnteredAt: entered, ExitedAt: exited}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Spawned != 0 || s.MeanWait != 0 || s.CompletionRate != 1 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	vehs := []vehicle.Vehicle{
		veh(10, 0, 100),
		veh(20, 0, 120),
		veh(30, 0, vehicle.Unset), // still in network
		veh(40, vehicle.Unset, vehicle.Unset),
	}
	s := Summarize(vehs)
	if s.Spawned != 4 || s.Exited != 2 {
		t.Fatalf("counts: %+v", s)
	}
	if s.MeanWait != 25 {
		t.Errorf("MeanWait = %v, want 25", s.MeanWait)
	}
	if s.MeanWaitExited != 15 {
		t.Errorf("MeanWaitExited = %v, want 15", s.MeanWaitExited)
	}
	if s.MaxWait != 40 {
		t.Errorf("MaxWait = %v", s.MaxWait)
	}
	if s.MeanTripTime != 110 {
		t.Errorf("MeanTripTime = %v, want 110", s.MeanTripTime)
	}
	if s.CompletionRate != 0.5 {
		t.Errorf("CompletionRate = %v", s.CompletionRate)
	}
}

func TestSummarizePercentilesOrdered(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vehs := make([]vehicle.Vehicle, len(raw))
		for i, r := range raw {
			vehs[i] = veh(float64(r), 0, vehicle.Unset)
		}
		s := Summarize(vehs)
		return s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.MaxWait+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := percentileSorted(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if percentileSorted(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	if percentileSorted([]float64{7}, 90) != 7 {
		t.Error("single percentile wrong")
	}
}
