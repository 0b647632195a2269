package signal

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPhaseString(t *testing.T) {
	if Amber.String() != "c0" {
		t.Errorf("amber = %q", Amber.String())
	}
	if Phase(3).String() != "c3" {
		t.Errorf("phase 3 = %q", Phase(3).String())
	}
}

func TestOutFull(t *testing.T) {
	cases := []struct {
		obs  LinkObs
		want bool
	}{
		{LinkObs{OutOccupancy: 10, OutCapacity: 10}, true},
		{LinkObs{OutOccupancy: 11, OutCapacity: 10}, true},
		{LinkObs{OutOccupancy: 9, OutCapacity: 10}, false},
		{LinkObs{OutOccupancy: 1000, OutCapacity: 0}, false}, // unbounded
	}
	for i, c := range cases {
		if got := c.obs.OutFull(); got != c.want {
			t.Errorf("case %d: OutFull = %v", i, got)
		}
	}
}

func TestOutFullProperty(t *testing.T) {
	f := func(occ uint16, cap uint16) bool {
		l := LinkObs{OutOccupancy: int32(occ), OutCapacity: int32(cap)}
		if cap == 0 {
			return !l.OutFull()
		}
		return l.OutFull() == (int(occ) >= int(cap))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func validInfo() JunctionInfo {
	return JunctionInfo{
		Label:    "J",
		NumLinks: 3,
		Phases:   [][]int{{0, 1}, {2}},
		WStar:    10,
		DeltaT:   1,
	}
}

func TestJunctionInfoValidate(t *testing.T) {
	valid := validInfo()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid info rejected: %v", err)
	}
	bad := []func(*JunctionInfo){
		func(i *JunctionInfo) { i.NumLinks = 0 },
		func(i *JunctionInfo) { i.Phases = nil },
		func(i *JunctionInfo) { i.Phases = [][]int{{}} },
		func(i *JunctionInfo) { i.Phases = [][]int{{3}} },
		func(i *JunctionInfo) { i.Phases = [][]int{{-1}} },
		func(i *JunctionInfo) { i.DeltaT = 0 },
	}
	for n, mutate := range bad {
		info := validInfo()
		mutate(&info)
		if err := info.Validate(); err == nil {
			t.Errorf("mutation %d accepted", n)
		}
	}
}

func TestNumPhases(t *testing.T) {
	info := validInfo()
	if got := info.NumPhases(); got != 2 {
		t.Errorf("NumPhases = %d", got)
	}
}

type nopCtrl struct{}

func (nopCtrl) Name() string      { return "nop" }
func (nopCtrl) Decide(*Obs) Phase { return Amber }

func TestFactoryFunc(t *testing.T) {
	f := FactoryFunc{Label: "nop", Build: func(JunctionInfo) (Controller, error) {
		return nopCtrl{}, nil
	}}
	if f.Name() != "nop" {
		t.Errorf("name %q", f.Name())
	}
	c, err := f.New(validInfo())
	if err != nil {
		t.Fatal(err)
	}
	if c.Decide(&Obs{}) != Amber {
		t.Error("controller decision wrong")
	}
}

// TestLinkObsIsOneCacheLine pins the observation at 64 bytes, so the
// engine's observation slab keeps one link per cache line.
func TestLinkObsIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(LinkObs{}); n != 64 {
		t.Fatalf("LinkObs is %d bytes, want 64", n)
	}
}
