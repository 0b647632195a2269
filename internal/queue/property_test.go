package queue

import (
	"slices"
	"sort"
	"testing"

	"utilbp/internal/rng"
)

// TestLaneRandomOpsProperty drives random Reserve/Push/Pop/Peek/
// Head/walk/Reset sequences on one lane against a plain-slice model
// and checks, after every operation, FIFO order, conservation (pushed −
// popped = queued) and the walk, Peek and Head views. Pushes re-queue
// vehicles the lane has released, as vehicles move between the lanes
// of a run, so links are rewritten while others still hang off them.
func TestLaneRandomOpsProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7, 0x10A0E} {
		src := rng.New(seed)
		var s Store
		var l Lane
		var model []Item
		var free []int // vehicles not in the lane, reused before fresh IDs
		pushed, popped := 0, 0
		next := 0
		for op := 0; op < 3000; op++ {
			switch src.Intn(10) {
			case 0, 1, 2, 3:
				v := next
				if len(free) > 0 && src.Intn(2) == 0 {
					v, free = free[len(free)-1], free[:len(free)-1]
				} else {
					next++
				}
				at := src.Float64() * 1000
				s.Push(&l, int32(v), at)
				model = append(model, Item{Vehicle: v, EnqueuedAt: at})
				pushed++
			case 4, 5, 6:
				it, ok := s.Pop(&l)
				if ok != (len(model) > 0) {
					t.Fatalf("seed %d op %d: Pop ok=%v with model len %d", seed, op, ok, len(model))
				}
				if ok {
					if it != model[0] {
						t.Fatalf("seed %d op %d: Pop = %+v, model head %+v", seed, op, it, model[0])
					}
					model = model[1:]
					free = append(free, it.Vehicle)
					popped++
				}
			case 7:
				it, ok := s.Peek(&l)
				hv, hok := l.Head()
				if ok != (len(model) > 0) || hok != ok {
					t.Fatalf("seed %d op %d: Peek/Head ok mismatch", seed, op)
				}
				if ok && (it != model[0] || int(hv) != model[0].Vehicle) {
					t.Fatalf("seed %d op %d: Peek = %+v / head %d, model %+v", seed, op, it, hv, model[0])
				}
			case 8:
				// Growing the store mid-stream must keep every link.
				s.Reserve(next + src.Intn(64))
			default:
				if src.Intn(50) == 0 {
					l.Reset()
					for _, it := range model {
						free = append(free, it.Vehicle)
					}
					model = model[:0]
					pushed, popped = 0, 0
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, l.Len(), len(model))
			}
			if pushed-popped != len(model) {
				t.Fatalf("seed %d op %d: conservation broke: %d pushed, %d popped, %d queued",
					seed, op, pushed, popped, len(model))
			}
			if op%16 == 0 {
				if got := laneItems(&s, &l); !slices.Equal(got, model) {
					t.Fatalf("seed %d op %d: walk = %+v, model %+v", seed, op, got, model)
				}
			}
		}
		// Drain: the full remaining order must match the model.
		for i := 0; l.Len() > 0; i++ {
			it, _ := s.Pop(&l)
			if it != model[i] {
				t.Fatalf("seed %d drain %d: %+v, want %+v", seed, i, it, model[i])
			}
		}
	}
}

// TestStoreManyLanesProperty interleaves random pushes, pops and
// resets over many lanes sharing one store and checks each against its
// own slice FIFO: every vehicle moves between lanes (a pop frees it, a
// push takes a free one), so each lane's links are rewritten by its
// neighbours' traffic, and no lane may see another's vehicles, lose
// one of its own or reorder them. Every so often the store grows under
// the queued lanes.
func TestStoreManyLanesProperty(t *testing.T) {
	const lanes, vehicles = 9, 300
	for _, seed := range []uint64{5, 23, 0xFEED} {
		src := rng.New(seed)
		var s Store
		ls := make([]Lane, lanes)
		models := make([][]Item, lanes)
		free := make([]int, 0, vehicles)
		for v := vehicles - 1; v >= 0; v-- {
			free = append(free, v)
		}
		for op := 0; op < 20000; op++ {
			k := src.Intn(lanes)
			l, m := &ls[k], &models[k]
			switch r := src.Intn(100); {
			case r < 50 && len(free) > 0:
				j := src.Intn(len(free))
				v := free[j]
				free[j] = free[len(free)-1]
				free = free[:len(free)-1]
				at := float64(op) + src.Float64()
				s.Push(l, int32(v), at)
				*m = append(*m, Item{Vehicle: v, EnqueuedAt: at})
			case r < 98:
				it, ok := s.Pop(l)
				if ok != (len(*m) > 0) {
					t.Fatalf("seed %d op %d lane %d: Pop ok=%v with model len %d", seed, op, k, ok, len(*m))
				}
				if ok {
					if it != (*m)[0] {
						t.Fatalf("seed %d op %d lane %d: Pop = %+v, model head %+v", seed, op, k, it, (*m)[0])
					}
					*m = (*m)[1:]
					free = append(free, it.Vehicle)
				}
			case r < 99:
				l.Reset()
				for _, it := range *m {
					free = append(free, it.Vehicle)
				}
				*m = (*m)[:0]
			default:
				if len(s.links) < 8*vehicles {
					s.Reserve(len(s.links) + 1)
				}
			}
			if op%97 == 0 {
				for i := range ls {
					if got := laneItems(&s, &ls[i]); !slices.Equal(got, models[i]) || ls[i].Len() != len(models[i]) {
						t.Fatalf("seed %d op %d lane %d: walk = %+v, model %+v", seed, op, i, got, models[i])
					}
				}
			}
		}
		queued := 0
		for i := range ls {
			if got := laneItems(&s, &ls[i]); !slices.Equal(got, models[i]) {
				t.Fatalf("seed %d final lane %d: walk = %+v, model %+v", seed, i, got, models[i])
			}
			queued += ls[i].Len()
		}
		if queued+len(free) != vehicles {
			t.Fatalf("seed %d: %d queued + %d free != %d vehicles", seed, queued, len(free), vehicles)
		}
	}
}

// TestTravelRandomOpsProperty checks a road's transit list against the
// order the travel heap it replaced released vehicles in: sorted by
// (arrival time, insertion order). Vehicles enter as the engine enters
// them, at clock + travel with one travel time and a clock that never
// decreases (coarse steps force equal times), and arbitrary interleavings
// of pushes and due-pops must release exactly the reference's head each
// time, never a vehicle past its deadline and never withhold a due one.
func TestTravelRandomOpsProperty(t *testing.T) {
	type entry struct {
		at  float64
		veh int
		seq int
	}
	for _, seed := range []uint64{3, 11, 0x7AFE} {
		src := rng.New(seed)
		travel := 1 + src.Float64()*30
		var s Store
		var l Lane
		var model []entry
		seq := 0
		clock := 0.0
		for op := 0; op < 2000; op++ {
			if src.Intn(3) > 0 {
				at := clock + travel
				s.Push(&l, int32(seq+1000), at)
				model = append(model, entry{at: at, veh: seq + 1000, seq: seq})
				seq++
			} else {
				clock += float64(src.Intn(3))
				deadline := clock + 1
				sort.SliceStable(model, func(i, j int) bool {
					if model[i].at != model[j].at {
						return model[i].at < model[j].at
					}
					return model[i].seq < model[j].seq
				})
				for {
					it, ok := popDue(&s, &l, deadline)
					if !ok {
						if len(model) > 0 && model[0].at <= deadline {
							t.Fatalf("seed %d op %d: due-pop(%g) withheld due arrival %+v",
								seed, op, deadline, model[0])
						}
						break
					}
					if it.EnqueuedAt > deadline {
						t.Fatalf("seed %d op %d: due-pop(%g) released future arrival at %g", seed, op, deadline, it.EnqueuedAt)
					}
					if len(model) == 0 || it.Vehicle != model[0].veh || it.EnqueuedAt != model[0].at {
						t.Fatalf("seed %d op %d: due-pop = veh %d at %g, reference head %+v",
							seed, op, it.Vehicle, it.EnqueuedAt, model)
					}
					model = model[1:]
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, l.Len(), len(model))
			}
			if p, ok := s.Peek(&l); ok {
				// The head is the earliest arrival: nothing in the
				// reference may be earlier.
				for _, e := range model {
					if e.at < p.EnqueuedAt {
						t.Fatalf("seed %d op %d: head at %g but the reference holds %g", seed, op, p.EnqueuedAt, e.at)
					}
				}
			}
		}
	}
}
