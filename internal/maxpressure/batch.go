package maxpressure

import (
	"fmt"

	"utilbp/internal/signal"
)

// BatchController is the batched MaxPressure controller: one instance
// drives every junction of a network through
// signal.BatchController.DecideAll. The link weight is a pure function
// of the link's observation, so the controller keeps all junctions'
// weights in one dense slab parallel to the batch's link slab and
// recomputes only the links the engine's change set names — the same
// cache structure core.BatchController uses for UTIL-BP gains
// (DESIGN.md §11, §13). The per-junction phase logic is byte-for-byte
// the per-junction Controller's decideWithWeights, so the two dispatch
// modes cannot diverge.
//
// The zero value is not usable; construct with NewBatchController. A
// BatchController allocates nothing after construction.
type BatchController struct {
	juncs   []*Controller
	weights []float64
	juncOf  []int32
	obs     signal.Obs
	primed  bool
}

// NewBatchController builds the batched MaxPressure controller for the
// given junctions (in batch junction order) with shared options.
func NewBatchController(infos []signal.JunctionInfo, opts Options) (*BatchController, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("maxpressure: batch controller needs at least one junction")
	}
	b := &BatchController{juncs: make([]*Controller, 0, len(infos))}
	total := 0
	for _, info := range infos {
		c, err := New(info, opts)
		if err != nil {
			return nil, err
		}
		b.juncs = append(b.juncs, c)
		total += info.NumLinks
	}
	b.weights = make([]float64, total)
	b.juncOf = make([]int32, total)
	gl := 0
	for ji, info := range infos {
		for li := 0; li < info.NumLinks; li++ {
			b.juncOf[gl] = int32(ji)
			gl++
		}
	}
	return b, nil
}

// Name implements signal.BatchController.
func (b *BatchController) Name() string { return "MAXPRESSURE" }

// DecideAll implements signal.BatchController: refresh the weight slab
// (fully, or only the change set), then run each junction's phase logic
// over its slab window. A quiet junction keeps Current without deciding
// on every step but the one that ends its minimum green: before it the
// hold returns Current, and after it last round's selection over the
// same weights already returned Current.
func (b *BatchController) DecideAll(batch *signal.Batch) {
	if batch.AllChanged || !b.primed {
		for ji, c := range b.juncs {
			lo, hi := batch.JuncOff[ji], batch.JuncOff[ji+1]
			links := batch.Links[lo:hi]
			weights := b.weights[lo:hi]
			for i := range links {
				weights[i] = Weight(&links[i], c.opts.CountApproaching)
			}
		}
		b.primed = true
	} else {
		for _, gl := range batch.Changed {
			c := b.juncs[b.juncOf[gl]]
			b.weights[gl] = Weight(&batch.Links[gl], c.opts.CountApproaching)
		}
	}
	for ji, c := range b.juncs {
		if batch.IsQuiet(ji) && batch.Step-c.greenStart != c.opts.MinGreenSteps {
			batch.Decided[ji] = batch.Current[ji]
			continue
		}
		batch.View(ji, &b.obs)
		c.weights = b.weights[batch.JuncOff[ji]:batch.JuncOff[ji+1]]
		batch.Decided[ji] = c.decideWithWeights(&b.obs)
	}
}
