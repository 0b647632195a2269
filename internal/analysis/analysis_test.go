package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean not 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean wrong")
	}
}

func TestStd(t *testing.T) {
	if Std(nil) != 0 || Std([]float64{5}) != 0 {
		t.Error("degenerate std not 0")
	}
	if !almost(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Errorf("std = %v, want 2", Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestArgMinMax(t *testing.T) {
	xs := []float64{5, 2, 8, 2}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d (ties should take first)", ArgMin(xs))
	}
	if ArgMin(nil) != -1 {
		t.Error("empty arg should be -1")
	}
}

func TestArgMinProperty(t *testing.T) {
	f := func(xs []float64) bool {
		i := ArgMin(xs)
		if len(xs) == 0 {
			return i == -1
		}
		for _, x := range xs {
			if x < xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImprovement(t *testing.T) {
	imp, err := Improvement(100, 87)
	if err != nil || !almost(imp, 0.13) {
		t.Errorf("Improvement = %v, %v", imp, err)
	}
	if _, err := Improvement(0, 1); err == nil {
		t.Error("zero baseline accepted")
	}
	neg, err := Improvement(100, 110)
	if err != nil || !almost(neg, -0.1) {
		t.Errorf("worse candidate: %v", neg)
	}
}

func TestTrend(t *testing.T) {
	if !almost(Trend([]float64{0, 2, 4, 6}), 2) {
		t.Errorf("rising trend = %v, want 2", Trend([]float64{0, 2, 4, 6}))
	}
	if !almost(Trend([]float64{5, 5, 5}), 0) {
		t.Error("flat trend not 0")
	}
	if Trend([]float64{9}) != 0 {
		t.Error("single point trend not 0")
	}
	if Trend([]float64{10, 7, 4, 1}) >= 0 {
		t.Error("falling trend not negative")
	}
}
