package bpest

import (
	"fmt"

	"utilbp/internal/signal"
)

// BatchController is the batched estimated-routing BP controller, the
// change-set-cached counterpart of the per-junction Controller
// (DESIGN.md §11, §13). The estimated gain of a link depends only on
// that link's observation and its own estimator state, and the
// estimator only advances when the link's cumulative join counters do —
// which is part of the observation. A link outside the batch change set
// is therefore bit-for-bit unchanged, estimator included, and its
// cached gain is exact; the controller recomputes only the links the
// engine's change set names. The per-junction phase logic is
// byte-for-byte the Controller's decideWithGains, so the two dispatch
// modes cannot diverge.
//
// The zero value is not usable; construct with NewBatchController. A
// BatchController allocates nothing after construction.
type BatchController struct {
	juncs  []*Controller
	gains  []float64
	juncOf []int32
	obs    signal.Obs
	primed bool
}

// NewBatchController builds the batched BP-EST controller for the given
// junctions (in batch junction order) with shared options.
func NewBatchController(infos []signal.JunctionInfo, opts Options) (*BatchController, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("bpest: batch controller needs at least one junction")
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
func (b *BatchController) Name() string { return "BP-EST" }

// DecideAll implements signal.BatchController: advance the estimators
// and refresh the gain slab (fully, or only the change set), then run
// each junction's Algorithm 1 phase logic over its slab window. A quiet
// junction keeps Current without deciding: its links are outside the
// change set, so its estimators and gains are last round's, and the
// eq. (12) threshold reads no clock.
func (b *BatchController) DecideAll(batch *signal.Batch) {
	if batch.AllChanged || !b.primed {
		for ji, c := range b.juncs {
			lo, hi := batch.JuncOff[ji], batch.JuncOff[ji+1]
			links := batch.Links[lo:hi]
			gains := b.gains[lo:hi]
			for i := range links {
				gains[i] = c.updateLink(i, &links[i])
			}
		}
		b.primed = true
	} else {
		for _, gl := range batch.Changed {
			ji := b.juncOf[gl]
			c := b.juncs[ji]
			b.gains[gl] = c.updateLink(int(gl-batch.JuncOff[ji]), &batch.Links[gl])
		}
	}
	for ji, c := range b.juncs {
		if batch.IsQuiet(ji) {
			batch.Decided[ji] = batch.Current[ji]
			continue
		}
		batch.View(ji, &b.obs)
		c.gains = b.gains[batch.JuncOff[ji]:batch.JuncOff[ji+1]]
		batch.Decided[ji] = c.decideWithGains(&b.obs)
	}
}
