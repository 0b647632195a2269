package cli

import (
	"reflect"
	"testing"

	"utilbp/internal/scenario"
)

func TestParsePattern(t *testing.T) {
	cases := map[string]scenario.Pattern{
		"I": scenario.PatternI, "i": scenario.PatternI, "1": scenario.PatternI,
		"II": scenario.PatternII, "2": scenario.PatternII,
		"iii": scenario.PatternIII, "3": scenario.PatternIII,
		"IV": scenario.PatternIV, "4": scenario.PatternIV,
		"mixed": scenario.PatternMixed, "M": scenario.PatternMixed,
		" II ": scenario.PatternII,
	}
	for in, want := range cases {
		got, err := ParsePattern(in)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "V", "0", "all"} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) accepted", bad)
		}
	}
}

func TestPickFactory(t *testing.T) {
	setup := scenario.Default()
	cases := map[string]string{
		"util":    "UTIL-BP",
		"UTIL-BP": "UTIL-BP",
		"cap":     "CAP-BP",
		"capnorm": "CAP-BP-NORM",
		"orig":    "ORIG-BP",
		"fixed":   "FIXED",
	}
	for in, want := range cases {
		f, err := PickFactory(setup, in, 16)
		if err != nil {
			t.Errorf("PickFactory(%q): %v", in, err)
			continue
		}
		if f.Name() != want {
			t.Errorf("PickFactory(%q) = %q, want %q", in, f.Name(), want)
		}
	}
	if _, err := PickFactory(setup, "magic", 16); err == nil {
		t.Error("unknown controller accepted")
	}
}

// TestControllerNamesResolvable requires every family name the spec
// parser advertises to resolve through PickFactory.
func TestControllerNamesResolvable(t *testing.T) {
	setup := scenario.Default()
	for _, name := range scenario.ControllerSpecNames() {
		if _, err := PickFactory(setup, name, 20); err != nil {
			t.Errorf("advertised name %q not resolvable: %v", name, err)
		}
	}
}

func TestPeriodRange(t *testing.T) {
	got, err := PeriodRange(10, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 15, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("periods = %v, want %v", got, want)
	}
	single, err := PeriodRange(16, 16, 2)
	if err != nil || len(single) != 1 || single[0] != 16 {
		t.Errorf("single period: %v, %v", single, err)
	}
	for _, bad := range []struct{ min, max, step int }{
		{10, 20, 0},  // step 0 never advances
		{10, 20, -2}, // negative step never reaches max
		{0, 10, 2},   // min 0
		{20, 10, 2},  // max < min
	} {
		if got, err := PeriodRange(bad.min, bad.max, bad.step); err == nil {
			t.Errorf("PeriodRange(%d, %d, %d) = %v, want an error", bad.min, bad.max, bad.step, got)
		}
	}
}
