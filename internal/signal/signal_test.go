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

// TestOutFull checks Row.Full, which a link applies to its outgoing
// road's row.
func TestOutFull(t *testing.T) {
	cases := []struct {
		out  Row
		want bool
	}{
		{Row{Occ: 10, Cap: 10}, true},
		{Row{Occ: 11, Cap: 10}, true},
		{Row{Occ: 9, Cap: 10}, false},
		{Row{Occ: 1000, Cap: 0}, false}, // unbounded
	}
	for i, c := range cases {
		if got := c.out.Full(); got != c.want {
			t.Errorf("case %d: Full = %v", i, got)
		}
	}
}

func TestOutFullProperty(t *testing.T) {
	f := func(occ uint16, cap uint16) bool {
		out := Row{Occ: int32(occ), Cap: int32(cap)}
		if cap == 0 {
			return !out.Full()
		}
		return out.Full() == (int(occ) >= int(cap))
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

// TestRowIsOneCacheLine pins a road row at 64 bytes, so a slab that
// starts on a cache line keeps every row on one line and a link reads
// two lines, and a link table entry at 24 bytes.
func TestRowIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Row{}); n != 64 {
		t.Fatalf("Row is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(Link{}); n != 24 {
		t.Fatalf("Link is %d bytes, want 24", n)
	}
}

func TestPairRows(t *testing.T) {
	for gl := int32(0); gl < 4; gl++ {
		if in, out := PairRows(gl); in != 2*gl || out != 2*gl+1 {
			t.Errorf("PairRows(%d) = %d, %d", gl, in, out)
		}
	}
}
