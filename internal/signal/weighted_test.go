package signal

import (
	"fmt"
	"slices"
	"testing"

	"utilbp/internal/snap"
)

// countingWeighted is a Weighted controller that records how the batch
// calls it. Its weight is the link's incoming row's Total. Its phase
// rule returns phase 1 and remembers the window it decided on: it
// weighs the window itself, from the view's rows. Its snapshot state is
// one integer.
type countingWeighted struct {
	weighs  int
	decides int
	stale   []bool
	seen    []float64
	state   int
}

// clockWeighted adds a QuietRule to countingWeighted.
type clockWeighted struct {
	*countingWeighted
	keepsQuiet bool
}

func (c *clockWeighted) KeepsQuiet(int) bool { return c.keepsQuiet }

func (c *countingWeighted) Name() string { return "COUNTING" }

func (c *countingWeighted) Decide(obs *Obs) Phase {
	return c.DecideWeighted(make([]float64, len(obs.Links)), true, obs)
}

func (c *countingWeighted) Weigh(links []Link, rows []Row, w []float64) {
	c.weighs++
	for i := range links {
		w[i] = float64(rows[links[i].In].Total)
	}
}

func (c *countingWeighted) DecideWeighted(w []float64, stale bool, obs *Obs) Phase {
	c.decides++
	c.stale = append(c.stale, stale)
	for i := range w {
		w[i] = float64(obs.Rows[obs.Links[i].In].Total)
	}
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
		Rows:    make([]Row, 6),
		Links:   make([]Link, 6),
		JuncOff: []int32{0, 2, 5, 6},
		Current: make([]Phase, 3),
		Decided: make([]Phase, 3),
		Infos:   infos,
	}
	for gl := range b.Links {
		b.Links[gl].In = int32(gl)
		b.Rows[gl].Total = int32(10 + gl)
	}
	return bc, b, fakes, clock
}

// resetCounts clears the fakes' call records between rounds.
func resetCounts(fakes []*countingWeighted) {
	for _, c := range fakes {
		c.weighs, c.decides, c.stale = 0, 0, nil
	}
}

// checkCalls fails unless, this round, the batch made no Weigh call
// and decided each junction as decided says, one byte per junction:
// 's' once on a stale window, 'f' once on a window handed as weighed,
// '-' not at all.
func checkCalls(t *testing.T, round string, fakes []*countingWeighted, decided string) {
	t.Helper()
	for j, c := range fakes {
		got := "-"
		switch {
		case c.decides > 1:
			got = fmt.Sprintf("%d decisions", c.decides)
		case c.decides == 1 && c.stale[0]:
			got = "s"
		case c.decides == 1:
			got = "f"
		}
		if c.weighs != 0 || got != decided[j:j+1] {
			t.Fatalf("%s, junction %d: Weigh %d, decided %s; want 0, %s", round, j, c.weighs, got, decided[j:j+1])
		}
	}
}

// TestWeightedBatchCacheContract pins what the shared batch calls, not
// only what it decides: a batch that weighed links itself, handed a
// rule a window as already weighed, or ran the phase rule of every
// quiet junction would still produce the same phase traces.
func TestWeightedBatchCacheContract(t *testing.T) {
	bc, b, fakes, clock := countingBatch(t)
	if bc.Name() != "COUNTING" {
		t.Errorf("Name = %q", bc.Name())
	}

	// Every round, each decided junction gets one call into its rule,
	// on a stale window as wide as its links, and the batch weighs
	// nothing: the rule weighs what it reads from this round's rows.
	for round := range 3 {
		resetCounts(fakes)
		for gl := range b.Rows {
			b.Rows[gl].Total = int32(10*round + gl)
		}
		bc.DecideAll(b)
		what := fmt.Sprintf("round %d", round)
		checkCalls(t, what, fakes, "sss")
		for j, c := range fakes {
			var want []float64
			for gl := b.JuncOff[j]; gl < b.JuncOff[j+1]; gl++ {
				want = append(want, float64(b.Rows[gl].Total))
			}
			if !slices.Equal(c.seen, want) {
				t.Fatalf("%s, junction %d decided on %v, want its rows' weights %v", what, j, c.seen, want)
			}
			if b.Decided[j] != 1 {
				t.Fatalf("%s, junction %d: Decided %v, want c1", what, j, b.Decided[j])
			}
		}
	}

	// Quiet junctions keep Current without a call into the phase rule,
	// unless their QuietRule says otherwise; others are decided (c1),
	// each on a stale window.
	b.Current = []Phase{2, 2, 2}
	b.Quiet = []bool{true, true, false}
	for _, keeps := range []bool{false, true} {
		resetCounts(fakes)
		b.Decided = []Phase{Amber, Amber, Amber}
		clock.keepsQuiet = keeps
		bc.DecideAll(b)
		want, calls := []Phase{2, 1, 1}, "-ss"
		if keeps {
			want, calls = []Phase{2, 2, 1}, "--s"
		}
		checkCalls(t, fmt.Sprintf("KeepsQuiet %v", keeps), fakes, calls)
		for j := range fakes {
			if b.Decided[j] != want[j] {
				t.Errorf("KeepsQuiet %v, junction %d: Decided %v, want %v", keeps, j, b.Decided[j], want[j])
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
