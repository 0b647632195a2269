package signal

import (
	"slices"
	"testing"

	"utilbp/internal/snap"
)

// countingWeighted is a Weighted controller that records how the batch
// calls it. Its weight is the link's Queue, its phase rule returns
// phase 1 and remembers the weights it saw, and its snapshot state is
// one integer.
type countingWeighted struct {
	weighs     int
	weighLinks []int
	decides    int
	seen       []float64
	state      int
}

// clockWeighted adds a QuietRule to countingWeighted.
type clockWeighted struct {
	*countingWeighted
	keepsQuiet bool
}

func (c *clockWeighted) KeepsQuiet(int) bool { return c.keepsQuiet }

func (c *countingWeighted) Name() string { return "COUNTING" }

func (c *countingWeighted) Decide(obs *Obs) Phase {
	w := make([]float64, len(obs.Links))
	c.Weigh(obs.Links, w)
	return c.DecideWeighted(w, obs)
}

func (c *countingWeighted) Weigh(links []LinkObs, w []float64) {
	c.weighs++
	for i := range links {
		w[i] = float64(links[i].Queue)
	}
}

func (c *countingWeighted) WeighLink(li int, l *LinkObs) float64 {
	c.weighLinks = append(c.weighLinks, li)
	return float64(l.Queue)
}

func (c *countingWeighted) DecideWeighted(w []float64, _ *Obs) Phase {
	c.decides++
	c.seen = append(c.seen[:0], w...)
	return 1
}

func (c *countingWeighted) SnapshotState(w *snap.Writer) { w.Int(c.state) }

func (c *countingWeighted) RestoreState(r *snap.Reader) error {
	c.state = r.Int()
	return r.Err()
}

// countingBatch builds a weighted batch over junctions of 2, 3 and 1
// links, the batch it decides and the fakes it drives. Junction 1's
// controller has a QuietRule, returned as clock.
func countingBatch(t *testing.T) (bc BatchController, b *Batch, fakes []*countingWeighted, clock *clockWeighted) {
	t.Helper()
	f := FactoryFunc{Label: "COUNTING", Build: func(JunctionInfo) (Controller, error) {
		c := &countingWeighted{}
		fakes = append(fakes, c)
		if len(fakes) == 2 {
			clock = &clockWeighted{countingWeighted: c}
			return clock, nil
		}
		return c, nil
	}}
	var infos []JunctionInfo
	for _, n := range []int{2, 3, 1} {
		infos = append(infos, JunctionInfo{NumLinks: n, Phases: [][]int{{0}}, DeltaT: 1})
	}
	bc, err := NewWeightedBatch(f, infos)
	if err != nil {
		t.Fatal(err)
	}
	b = &Batch{
		Links:   make([]LinkObs, 6),
		JuncOff: []int32{0, 2, 5, 6},
		Current: make([]Phase, 3),
		Decided: make([]Phase, 3),
		Infos:   infos,
	}
	for gl := range b.Links {
		b.Links[gl].Queue = int32(10 + gl)
	}
	return bc, b, fakes, clock
}

// resetCounts clears the fakes' call records between rounds.
func resetCounts(fakes []*countingWeighted) {
	for _, c := range fakes {
		c.weighs, c.weighLinks, c.decides = 0, nil, 0
	}
}

// TestWeightedBatchCacheContract pins what the shared batch calls, not
// only what it decides: a batch that re-weighed every link every round,
// or ran the phase rule of every quiet junction, would still produce
// the same phase traces.
func TestWeightedBatchCacheContract(t *testing.T) {
	bc, b, fakes, clock := countingBatch(t)
	if bc.Name() != "COUNTING" {
		t.Errorf("Name = %q", bc.Name())
	}

	// The first round is a full sweep even without AllChanged.
	bc.DecideAll(b)
	for j, c := range fakes {
		if c.weighs != 1 || c.weighLinks != nil || c.decides != 1 {
			t.Fatalf("first round, junction %d: Weigh %d, WeighLink %v, DecideWeighted %d; want 1, none, 1",
				j, c.weighs, c.weighLinks, c.decides)
		}
	}
	if want := []float64{12, 13, 14}; !slices.Equal(fakes[1].seen, want) {
		t.Fatalf("junction 1 decided on %v, want its slab window %v", fakes[1].seen, want)
	}

	// A change-set round re-weighs exactly the changed links, by their
	// junction-local index, and the phase rule sees the new weights.
	resetCounts(fakes)
	b.Links[1].Queue, b.Links[3].Queue, b.Links[5].Queue = 31, 33, 35
	b.Changed = []int32{1, 3, 5}
	bc.DecideAll(b)
	wantLinks := [][]int{{1}, {1}, {0}}
	for j, c := range fakes {
		if c.weighs != 0 || !slices.Equal(c.weighLinks, wantLinks[j]) {
			t.Fatalf("change-set round, junction %d: Weigh %d, WeighLink %v; want 0, %v",
				j, c.weighs, c.weighLinks, wantLinks[j])
		}
	}
	if want := []float64{12, 33, 14}; !slices.Equal(fakes[1].seen, want) {
		t.Fatalf("junction 1 decided on %v after the change set, want %v", fakes[1].seen, want)
	}

	// A change set over half the links, and AllChanged whatever Changed
	// holds, are full sweeps again.
	for _, all := range []bool{false, true} {
		resetCounts(fakes)
		b.Changed = []int32{0, 1, 2, 4}
		if all {
			b.Changed = nil
		}
		b.AllChanged = all
		bc.DecideAll(b)
		for j, c := range fakes {
			if c.weighs != 1 || c.weighLinks != nil {
				t.Fatalf("AllChanged %v, %d changed, junction %d: Weigh %d, WeighLink %v; want 1, none",
					all, len(b.Changed), j, c.weighs, c.weighLinks)
			}
		}
	}

	// Quiet junctions keep Current without a call into the phase rule,
	// unless their QuietRule says otherwise; others are decided (c1).
	b.AllChanged, b.Changed = false, nil
	b.Current = []Phase{2, 2, 2}
	b.Quiet = []bool{true, true, false}
	for _, keeps := range []bool{false, true} {
		resetCounts(fakes)
		b.Decided = []Phase{Amber, Amber, Amber}
		clock.keepsQuiet = keeps
		bc.DecideAll(b)
		want, calls := []Phase{2, 1, 1}, []int{0, 1, 1}
		if keeps {
			want, calls = []Phase{2, 2, 1}, []int{0, 0, 1}
		}
		for j, c := range fakes {
			if b.Decided[j] != want[j] || c.decides != calls[j] {
				t.Errorf("KeepsQuiet %v, junction %d: Decided %v after %d DecideWeighted calls, want %v after %d",
					keeps, j, b.Decided[j], c.decides, want[j], calls[j])
			}
		}
	}
}

// TestWeightedBatchSnapshot requires one state section per junction,
// in junction order, and a restore into a fresh batch.
func TestWeightedBatchSnapshot(t *testing.T) {
	bc, _, fakes, _ := countingBatch(t)
	for j, c := range fakes {
		c.state = 100 + j
	}
	w := snap.NewWriter(0)
	bc.(Snapshotter).SnapshotState(w)

	r := snap.NewReader(w.Bytes())
	for j := range fakes {
		sec := r.Section()
		if got := sec.Int(); got != 100+j {
			t.Fatalf("section %d holds %d, want %d", j, got, 100+j)
		}
		if err := sec.Close(); err != nil {
			t.Fatalf("section %d: %v", j, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("snapshot holds more than one section per junction: %v", err)
	}

	fresh, _, restored, _ := countingBatch(t)
	if err := fresh.(Snapshotter).RestoreState(snap.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	for j, c := range restored {
		if c.state != 100+j {
			t.Errorf("restored junction %d state %d, want %d", j, c.state, 100+j)
		}
	}
}

// TestNewWeightedBatchRejects covers the construction errors: no
// junctions, and a factory whose controllers are not Weighted.
func TestNewWeightedBatchRejects(t *testing.T) {
	f := FactoryFunc{Label: "PLAIN", Build: func(JunctionInfo) (Controller, error) { return plainController{}, nil }}
	if _, err := NewWeightedBatch(f, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewWeightedBatch(f, []JunctionInfo{{NumLinks: 1, Phases: [][]int{{0}}, DeltaT: 1}}); err == nil {
		t.Error("non-Weighted controller accepted")
	}
}

// plainController is a Controller without the Weighted methods.
type plainController struct{}

func (plainController) Name() string      { return "PLAIN" }
func (plainController) Decide(*Obs) Phase { return 1 }
