package experiment

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"utilbp/internal/rng"
)

func noLabels(int) cellLabels { return cellLabels{} }

// TestRunCellsOrderAndWorkers checks the runner's scheduling contract
// without engines: results come back in cell order whatever order the
// cells finish in, newWorker runs once per worker — min(width, n)
// times — and every cell sees its worker's state.
func TestRunCellsOrderAndWorkers(t *testing.T) {
	const n = 24
	src := rng.New(0x5EED)
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(src.Intn(400)) * time.Microsecond
	}
	type ran struct {
		idx    int
		worker int32
	}
	for _, c := range []struct{ n, width int }{{n, 1}, {n, 2}, {n, 3}, {n, 4}, {3, 4}} {
		t.Run(fmt.Sprintf("n=%d/width=%d", c.n, c.width), func(t *testing.T) {
			var built atomic.Int32
			got, err := runCells(c.n, c.width,
				func() int32 { return built.Add(1) },
				noLabels,
				func(worker int32, idx int) (ran, error) {
					time.Sleep(delays[idx])
					return ran{idx, worker}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			workers := int32(min(c.width, c.n))
			if b := built.Load(); b != workers {
				t.Fatalf("newWorker ran %d times, want %d", b, workers)
			}
			if len(got) != c.n {
				t.Fatalf("%d results, want %d", len(got), c.n)
			}
			for idx, r := range got {
				if r.idx != idx || r.worker < 1 || r.worker > workers {
					t.Fatalf("slot %d holds %+v (workers 1..%d)", idx, r, workers)
				}
			}
		})
	}
}

// TestRunCellsStopsAfterFailure checks that a failure stops the hand-out:
// at width 1 the only cell that may still run after the failing one is
// the one whose send was already in progress.
func TestRunCellsStopsAfterFailure(t *testing.T) {
	const n, failAt = 10, 2
	var ran []int // one worker: no concurrent appends
	_, err := runCells(n, 1, nil, noLabels, func(_ struct{}, idx int) (int, error) {
		ran = append(ran, idx)
		if idx == failAt {
			return 0, fmt.Errorf("cell %d failed", idx)
		}
		return idx, nil
	})
	if err == nil || err.Error() != "cell 2 failed" {
		t.Fatalf("error = %v, want cell 2's", err)
	}
	if len(ran) > failAt+2 {
		t.Fatalf("ran cells %v after cell %d failed, want at most one more", ran, failAt)
	}
	for i, idx := range ran {
		if idx != i {
			t.Fatalf("width 1 ran cells %v, want index order", ran)
		}
	}
}

// TestRunCellsLowestIndexError checks that the reported error is the
// lowest-index failure among the cells that ran, not the first in time:
// cell 3 fails at once, cell 1 only after a delay.
func TestRunCellsLowestIndexError(t *testing.T) {
	errSlow, errFast := errors.New("cell 1"), errors.New("cell 3")
	_, err := runCells(8, 4, nil, noLabels, func(_ struct{}, idx int) (int, error) {
		switch idx {
		case 1:
			time.Sleep(20 * time.Millisecond)
			return 0, errSlow
		case 3:
			return 0, errFast
		}
		return idx, nil
	})
	if !errors.Is(err, errSlow) {
		t.Fatalf("error = %v, want the lowest-index failure %v", err, errSlow)
	}
}

// TestRunCellsEmpty checks that a sweep with no cells starts no worker
// and returns an empty result.
func TestRunCellsEmpty(t *testing.T) {
	got, err := runCells(0, 4, func() int { t.Fatal("newWorker ran for an empty sweep"); return 0 }, noLabels,
		func(int, int) (int, error) { t.Fatal("run called for an empty sweep"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep returned %v, %v", got, err)
	}
}
