package signal

import (
	"fmt"

	"utilbp/internal/snap"
)

// Weighted is a Controller whose decision is a phase rule over per-link
// weights, each weight a function of its own link's observation, the
// columns of its two rows it reads (and of per-link state that advances
// only when that observation changes).
// UTIL-BP's gain, BP-EST's estimated gain and MaxPressure's pressure are
// such weights. Splitting the weighing from the phase rule lets one
// batched controller (NewWeightedBatch) drive every family, and lets
// each rule weigh only the links its case reads: the batch hands it a
// window of scratch, never weights carried from an earlier round
// (DESIGN.md §11).
//
// A junction flagged quiet (Batch.Quiet) keeps its Current phase
// without a call into the phase rule: on unchanged rows and the same
// Current, the rule must return Current and change none of its state. A
// family for which that fails at some steps, because its rule reads the
// clock, also implements QuietRule.
type Weighted interface {
	Controller
	// Weigh writes the weight of every link of the junction into w
	// (len(w) == len(links)), each read from rows: the whole window.
	Weigh(links []Link, rows []Row, w []float64)
	// DecideWeighted is the phase rule: c(k) from the junction's window
	// of link weights w and its observation. A stale window's entries
	// mean nothing: the rule weighs from obs.Rows what it reads, and
	// may write weights into w. With stale false, w holds every link's
	// current weight, for a caller that has them in hand (BP-EST's
	// Algorithm 1 tail, an eager oracle). Decide must equal
	// DecideWeighted on a stale window, and both must decide as Weigh
	// followed by DecideWeighted on the weighed window.
	DecideWeighted(w []float64, stale bool, obs *Obs) Phase
}

// QuietRule is implemented by a Weighted controller whose phase rule
// reads the clock. It is a separate interface, not a Weighted method,
// so that a family that always keeps quiet junctions costs the batch
// no call per quiet junction.
type QuietRule interface {
	// KeepsQuiet reports whether a junction flagged quiet at this step
	// keeps its Current phase.
	KeepsQuiet(step int) bool
}

// NewWeightedBatch builds the batched controller of a Weighted family:
// one controller per junction from f.New, in batch junction order, and
// one scratch window as wide as the widest junction. Every controller f
// builds must implement Weighted. The batch allocates nothing after
// construction.
func NewWeightedBatch(f Factory, infos []JunctionInfo) (BatchController, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("signal: %s batch needs at least one junction", f.Name())
	}
	widest := 0
	for _, info := range infos {
		widest = max(widest, info.NumLinks)
	}
	b := &weightedBatch{
		ctrls: make([]Weighted, len(infos)),
		w:     make([]float64, widest),
	}
	for j, info := range infos {
		c, err := f.New(info)
		if err != nil {
			return nil, err
		}
		w, ok := c.(Weighted)
		if !ok {
			return nil, fmt.Errorf("signal: %s controller is not Weighted", f.Name())
		}
		b.ctrls[j] = w
		if r, ok := w.(QuietRule); ok {
			if b.rules == nil {
				b.rules = make([]QuietRule, len(infos))
				b.keep = make([]bool, len(infos))
			}
			b.rules[j] = r
		}
	}
	return b, nil
}

// weightedBatch is the NewWeightedBatch controller.
type weightedBatch struct {
	ctrls []Weighted
	// rules[j] is ctrls[j]'s QuietRule, nil when it has none; rules is
	// nil when no controller has one. keep is the scratch quiet mask
	// the rules leave, allocated with rules.
	rules []QuietRule
	keep  []bool
	// w is the scratch window each decided junction's rule gets, stale,
	// cut to its link count.
	w []float64
	// obs is the scratch per-junction view.
	obs Obs
}

// Name implements BatchController.
func (b *weightedBatch) Name() string { return b.ctrls[0].Name() }

// DecideAll implements BatchController. Each decided junction gets one
// call into its phase rule, on a stale window of scratch, and the rule
// weighs from the rows only what its case reads, so a round where it
// reads no weight, or the current phase's alone, weighs no more than
// that. A quiet junction keeps Current without a view or a call into
// its phase rule, unless its QuietRule says otherwise.
func (b *weightedBatch) DecideAll(batch *Batch) {
	// The quiet rules run in a pass of their own: a call in the decide
	// loop's quiet test, even one never taken, slows every quiet
	// junction of every family.
	keep := batch.Quiet
	if b.rules != nil && keep != nil {
		keep = b.keep
		for j, r := range b.rules {
			keep[j] = batch.Quiet[j] && (r == nil || r.KeepsQuiet(batch.Step))
		}
	}
	for j := range b.ctrls {
		if keep != nil && keep[j] {
			batch.Decided[j] = batch.Current[j]
			continue
		}
		batch.View(j, &b.obs)
		batch.Decided[j] = b.ctrls[j].DecideWeighted(b.w[:len(b.obs.Links)], true, &b.obs)
	}
}

// SnapshotState implements Snapshotter with one section per junction
// controller, the per-junction dispatch layout. The scratch window is
// no state: each rule weighs what it reads from the restored rows and
// controller state.
func (b *weightedBatch) SnapshotState(w *snap.Writer) {
	SnapshotStates(w, b.ctrls)
}

// RestoreState implements Snapshotter.
func (b *weightedBatch) RestoreState(r *snap.Reader) error {
	return RestoreStates(r, b.ctrls)
}
