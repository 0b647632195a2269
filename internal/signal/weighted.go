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
// batched controller (NewWeightedBatch) keep every junction's weights in
// a slab parallel to Batch.Links and re-weigh only the change set
// (DESIGN.md §11).
//
// A junction flagged quiet (Batch.Quiet) keeps its Current phase
// without a call into the phase rule: on unchanged weights and the same
// Current, the rule must return Current and change none of its state. A
// family for which that fails at some steps, because its rule reads the
// clock, also implements QuietRule.
type Weighted interface {
	Controller
	// Weigh writes the weight of every link of the junction into w
	// (len(w) == len(links)), each read from rows: the full sweep.
	Weigh(links []Link, rows []Row, w []float64)
	// WeighLink returns the weight of link li, whose table entry is l,
	// read from rows: the change-set refresh of one link.
	WeighLink(li int, l *Link, rows []Row) float64
	// DecideWeighted is the phase rule: c(k) from the junction's link
	// weights and its observation. Decide must equal Weigh followed by
	// DecideWeighted.
	DecideWeighted(w []float64, obs *Obs) Phase
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
// a weight slab parallel to Batch.Links. Every controller f builds must
// implement Weighted. The batch allocates nothing after construction.
func NewWeightedBatch(f Factory, infos []JunctionInfo) (BatchController, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("signal: %s batch needs at least one junction", f.Name())
	}
	total := 0
	for _, info := range infos {
		total += info.NumLinks
	}
	b := &weightedBatch{
		ctrls:  make([]Weighted, len(infos)),
		w:      make([]float64, total),
		juncOf: make([]int32, 0, total),
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
		for range info.NumLinks {
			b.juncOf = append(b.juncOf, int32(j))
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
	// w is the weight slab, indexed like Batch.Links; juncOf maps a
	// dense link index to its junction.
	w      []float64
	juncOf []int32
	// obs is the scratch per-junction view.
	obs Obs
	// primed reports whether w holds the previous round's weights;
	// until the first full sweep the change set cannot be trusted.
	primed bool
}

// Name implements BatchController.
func (b *weightedBatch) Name() string { return b.ctrls[0].Name() }

// DecideAll implements BatchController: refresh the weight slab, fully
// (first round, AllChanged, or a change set over half the links) or for
// the change set only, then decide each junction over its slab window.
// A full sweep is exact whatever changed, and past half the links it is
// the cheaper refresh: one call per junction and a contiguous walk
// against one call per scattered link. A quiet junction keeps Current
// without a view or a call into its phase rule, unless its QuietRule
// says otherwise.
func (b *weightedBatch) DecideAll(batch *Batch) {
	if batch.AllChanged || !b.primed || 2*len(batch.Changed) > len(b.w) {
		for j, c := range b.ctrls {
			lo, hi := batch.JuncOff[j], batch.JuncOff[j+1]
			c.Weigh(batch.Links[lo:hi], batch.Rows, b.w[lo:hi])
		}
		b.primed = true
	} else {
		for _, gl := range batch.Changed {
			j := b.juncOf[gl]
			b.w[gl] = b.ctrls[j].WeighLink(int(gl-batch.JuncOff[j]), &batch.Links[gl], batch.Rows)
		}
	}
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
		batch.Decided[j] = b.ctrls[j].DecideWeighted(b.w[batch.JuncOff[j]:batch.JuncOff[j+1]], &b.obs)
	}
}

// SnapshotState implements Snapshotter with one section per junction
// controller, the per-junction dispatch layout. The weight slab and
// primed flag are cache: a restored engine rebuilds the batch, whose
// first full sweep recomputes the slab from the restored rows and
// controller state.
func (b *weightedBatch) SnapshotState(w *snap.Writer) {
	SnapshotStates(w, b.ctrls)
}

// RestoreState implements Snapshotter.
func (b *weightedBatch) RestoreState(r *snap.Reader) error {
	return RestoreStates(r, b.ctrls)
}
