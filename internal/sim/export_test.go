package sim

import (
	"fmt"
	"slices"
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/signal"
)

// QuietOffered returns how many junctions the engine's last batched
// control round offered as quiet (signal.Batch.Quiet), so tests can
// assert that the quiet-junction skip engaged without a public counter.
func QuietOffered(e *Engine) int {
	n := 0
	for _, q := range e.batch.Quiet {
		if q {
			n++
		}
	}
	return n
}

// RunServeReference advances the engine like Run, with the reference
// serve loop of serveref_test.go in place of the batched serve plane —
// the oracle side of the serve-equivalence harness.
func RunServeReference(e *Engine, steps int) {
	for i := 0; i < steps; i++ {
		e.stepServeReference()
	}
}

// SetJunctionPhases overwrites junction ji's applied and previous
// phase, so tests can write snapshot streams no controller produces.
func SetJunctionPhases(e *Engine, ji int, current, prev signal.Phase) {
	e.juncs[ji].current, e.juncs[ji].prev = current, prev
}

// RoadTables returns what New derived for road rid from the network:
// its free-flow travel time and its feasible-movement mask.
func RoadTables(e *Engine, rid network.RoadID) (travel float64, feasible uint8) {
	return e.roads[rid].travel, e.roads[rid].feasible
}

// DiffDerived compares every value resetDerived rebuilds on two engines
// at the same step — road rows with their effective capacities, the
// network queue total and due-time index, the event cursor, each
// junction's dark state, the totals, and under a sensor the observed
// pair of every link whose roads are both clean — and returns the first
// difference, nil when they agree. A link with a dirty road is
// skipped: the next sense substep copies its engine-owned columns, and
// until then a restored engine holds them fresh where the uninterrupted
// one still holds the previous step's values.
func DiffDerived(got, want *Engine) error {
	for ri := range want.rows {
		if got.rows[ri] != want.rows[ri] {
			return fmt.Errorf("road %d row %+v, want %+v", ri, got.rows[ri], want.rows[ri])
		}
		if got.tailDue[ri] != want.tailDue[ri] {
			return fmt.Errorf("road %d due time %v, want %v", ri, got.tailDue[ri], want.tailDue[ri])
		}
	}
	if got.netQueued != want.netQueued {
		return fmt.Errorf("network queue total %d, want %d", got.netQueued, want.netQueued)
	}
	if got.evCursor != want.evCursor {
		return fmt.Errorf("event cursor %d, want %d", got.evCursor, want.evCursor)
	}
	if got.totals != want.totals {
		return fmt.Errorf("totals %+v, want %+v", got.totals, want.totals)
	}
	for ji := range want.juncs {
		g, w := &got.juncs[ji], &want.juncs[ji]
		if g.darkSince != w.darkSince || g.darkPol != w.darkPol {
			return fmt.Errorf("junction %s dark since %d under %+v, want %d under %+v",
				w.info.Label, g.darkSince, g.darkPol, w.darkSince, w.darkPol)
		}
	}
	for gl, l := range want.links {
		if want.sensor == nil || want.roadDirty[l.In] || want.roadDirty[l.Out] {
			continue
		}
		gin, gout := got.pair(int32(gl))
		win, wout := want.pair(int32(gl))
		if *gin != *win || *gout != *wout {
			return fmt.Errorf("link %d observed pair %+v %+v, want %+v %+v", gl, *gin, *gout, *win, *wout)
		}
	}
	return nil
}

// StepCheckingDirty runs one step, stepOnce's substeps in its order,
// and then checks the dirty-set contract the incremental sense rests
// on: every road row that changed since the step's sense belongs to a
// road pending in the dirty set. A row changed without its mark would
// keep its junctions' batched gains, quiet flags and serve idle claims
// stale, and a sensor would never read it.
func StepCheckingDirty(e *Engine) error {
	t := e.Time()
	e.applyEvents()
	e.sense()
	shadow := slices.Clone(e.rows)
	e.control(t)
	e.serve(t)
	e.completeTravel(t)
	e.arrivals(t)
	e.endStep()
	for ri := range e.rows {
		if e.rows[ri] != shadow[ri] && !e.roadDirty[ri] {
			return fmt.Errorf("step %d: road %d row changed from %+v to %+v, and the road is not in the dirty set",
				e.step-1, ri, shadow[ri], e.rows[ri])
		}
	}
	return nil
}

// CorruptDerived overwrites one value resetDerived rebuilds, in
// memory, so a test can check that Snapshot carries no trace of it:
//   - "transit-moved": one vehicle in transit on a dirty road counted
//     under the next movement instead;
//   - "cursor": the event cursor set to -1;
//   - "dark-zero-policy": a dark junction's policy zeroed;
//   - "occupancy", "occupancy-above-capacity": the first loaded road's
//     occupancy one higher, or one past its capacity;
//   - "effective-capacity", "zero-effective-capacity": that road's
//     effective capacity one higher, or 0;
//   - "mixed-movement-count": one of its queued vehicles counted under
//     another movement.
func CorruptDerived(e *Engine, what string) error {
	loaded := -1
	for ri := range e.rows {
		if e.rows[ri].Cap > 0 && e.rows[ri].Total > 0 {
			loaded = ri
			break
		}
	}
	if loaded < 0 {
		return fmt.Errorf("no bounded road holds a queue")
	}
	row := &e.rows[loaded]
	switch what {
	case "transit-moved":
		for _, rd := range e.dirtyRoads {
			tr := &e.rows[rd].Transit
			for t := range tr {
				if tr[t] > 0 {
					tr[t]--
					tr[(t+1)%numTurns]++
					return nil
				}
			}
		}
		return fmt.Errorf("no dirty road has a vehicle in transit")
	case "cursor":
		e.evCursor = -1
	case "dark-zero-policy":
		for i := range e.juncs {
			if e.juncs[i].darkSince >= 0 {
				e.juncs[i].darkPol = signal.DarkPolicy{}
				return nil
			}
		}
		return fmt.Errorf("no junction is dark")
	case "occupancy":
		row.Occ++
	case "occupancy-above-capacity":
		row.Occ = int32(e.net.Roads[loaded].Capacity) + 1
	case "effective-capacity":
		row.Cap++
	case "zero-effective-capacity":
		row.Cap = 0
	case "mixed-movement-count":
		row.Queued[network.Straight]--
		row.Queued[network.Left]++
	default:
		return fmt.Errorf("unknown corruption %q", what)
	}
	return nil
}

// SnapshotSections returns the byte ranges, in e's snapshot, of the
// scalar section (step, route fallbacks, finalized) and of the junction
// section (each junction's phase pair and credits). Each is found by
// flipping the low bit of its first field in memory, which changes the
// field's first byte in the stream.
func SnapshotSections(e *Engine) (scalars, juncs [2]int) {
	base := e.Snapshot()
	first := func(flip func()) int {
		flip()
		b := e.Snapshot()
		flip()
		at := 0
		for b[at] == base[at] {
			at++
		}
		return at
	}
	s := first(func() { e.step ^= 1 })
	j := first(func() { e.juncs[0].current ^= 1 })
	n := 0
	for i := range e.juncs {
		n += 16 + 8*len(e.juncs[i].credits)
	}
	return [2]int{s, s + 17}, [2]int{j, j + n}
}

// FlipSweep flips the given bits of snapshot b one at a time (bit k of
// byte i is 8i+k) and hands each stream to e through
// ResetWith(seed, RestoreFrom). When e accepts a stream, which Restore
// does only once the invariants hold, it runs 20 steps and checks the
// invariants again. A panic in the restore or the steps, or an
// invariant failure, fails t. It returns how many flipped streams e
// rejected and accepted; b is left as it was.
func FlipSweep(t testing.TB, e *Engine, seed uint64, b []byte, bits []int) (rejected, accepted int) {
	t.Helper()
	for _, bit := range bits {
		if t.Failed() {
			return rejected, accepted
		}
		i, mask := bit/8, byte(1)<<(bit%8)
		b[i] ^= mask
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("byte %d bit %d flipped: panic: %v", i, bit%8, r)
				}
			}()
			if err := e.ResetWith(seed, ResetOptions{RestoreFrom: b}); err != nil {
				rejected++
				return
			}
			accepted++
			e.Run(20)
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("byte %d bit %d flipped: restored, and 20 steps on: %v", i, bit%8, err)
			}
		}()
		b[i] ^= mask
	}
	return rejected, accepted
}
