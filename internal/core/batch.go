package core

import (
	"fmt"

	"utilbp/internal/signal"
)

// BatchController is the batched UTIL-BP controller: one instance drives
// every junction of a network through signal.BatchController.DecideAll
// instead of per-junction virtual Decide calls. Per Algorithm 1 the link
// gain g(L, k) is a pure function of the link's observation, so the
// controller keeps all junctions' gains in one dense slab parallel to
// the batch's link slab and recomputes only the links the engine's
// change set names — in a quiescing network most links are untouched
// between rounds, which is where the batched control plane earns its
// keep (DESIGN.md §11). The per-junction phase logic (amber holding,
// keep-phase threshold, phase selection) is byte-for-byte the
// per-junction Controller's decideWithGains, so the two dispatch modes
// cannot diverge.
//
// The zero value is not usable; construct with NewBatchController. A
// BatchController allocates nothing after construction.
type BatchController struct {
	// juncs holds one per-junction Controller per junction, in batch
	// junction order; each carries its own Algorithm 1 state
	// (amber timer, scratch scores) and params.
	juncs []*Controller
	// gains is the dense link-gain slab, indexed like Batch.Links.
	gains []float64
	// juncOf maps a dense global link index to its junction, for
	// change-set updates (link gains depend on per-junction params).
	juncOf []int32
	// obs is the scratch per-junction observation view.
	obs signal.Obs
	// primed reports whether the gain slab holds the previous round's
	// values; until the first full sweep, change sets cannot be trusted.
	primed bool
	// skipQuiet reports whether quiet junctions may keep Current
	// without deciding: true for eq. (12), which reads only W* and the
	// µ of Lmax, false for a custom ThresholdFunc, which may read the
	// clock through Obs.Step/Obs.Time.
	skipQuiet bool
}

// NewBatchController builds the batched UTIL-BP controller for the given
// junctions (in batch junction order) with shared options.
func NewBatchController(infos []signal.JunctionInfo, opts Options) (*BatchController, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("core: batch controller needs at least one junction")
	}
	b := &BatchController{juncs: make([]*Controller, 0, len(infos)), skipQuiet: opts.Threshold == nil}
	total := 0
	for _, info := range infos {
		c, err := New(info, opts)
		if err != nil {
			return nil, err
		}
		b.juncs = append(b.juncs, c)
		total += info.NumLinks
	}
	b.gains = make([]float64, total)
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
func (b *BatchController) Name() string { return "UTIL-BP" }

// DecideAll implements signal.BatchController: refresh the gain slab
// (fully, or only the change set) in one flat sweep, then run each
// junction's Algorithm 1 phase logic over its slab window. A quiet
// junction keeps Current without deciding: with unchanged gains and
// the same green, Case 2 and the selection return what they returned
// last round, and neither touches the amber timer.
func (b *BatchController) DecideAll(batch *signal.Batch) {
	if batch.AllChanged || !b.primed {
		for ji, c := range b.juncs {
			lo, hi := batch.JuncOff[ji], batch.JuncOff[ji+1]
			links := batch.Links[lo:hi]
			gains := b.gains[lo:hi]
			for i := range links {
				gains[i] = LinkGain(&links[i], c.params, c.opts.Variant)
			}
		}
		b.primed = true
	} else {
		for _, gl := range batch.Changed {
			c := b.juncs[b.juncOf[gl]]
			b.gains[gl] = LinkGain(&batch.Links[gl], c.params, c.opts.Variant)
		}
	}
	for ji, c := range b.juncs {
		if b.skipQuiet && batch.IsQuiet(ji) {
			batch.Decided[ji] = batch.Current[ji]
			continue
		}
		batch.View(ji, &b.obs)
		// Hand the junction its window of the shared gain slab; the
		// decision tail reads c.gains exactly like the per-junction path.
		c.gains = b.gains[batch.JuncOff[ji]:batch.JuncOff[ji+1]]
		batch.Decided[ji] = c.decideWithGains(&b.obs)
	}
}
