// Package queue provides the FIFO primitives of the traffic model: the
// dedicated turning-lane queue (vehicles waiting at a stop line with their
// enqueue times) and a time-ordered heap for vehicles travelling along a
// road toward it.
//
// A vehicle waits in at most one lane at a time, so lanes own no
// storage: a Lane is a 12-byte header (head, tail, count) threaded
// through one Store, which holds a 16-byte link per vehicle ID — its
// enqueue time and the next vehicle in its lane. The store grows with
// the vehicles it has seen and never shrinks, so the lanes of an engine
// whose store is reserved for its expected vehicles never allocate, no
// matter how long a queue grows or how it churns; a pop reads one link
// and a push writes two, the new vehicle's and the old tail's
// (DESIGN.md §5). Travel implements its sift
// operations directly on []Arrival rather than through container/heap,
// whose interface methods box every element and would put two heap
// allocations on the per-vehicle hot path.
package queue

import "iter"

// Item is one queued vehicle: its identifier and the time it joined the
// queue, from which waiting time is computed at service.
type Item struct {
	Vehicle    int
	EnqueuedAt float64
}

// Lane is a FIFO queue of vehicles threaded through a Store: the IDs
// of its oldest and newest vehicles and its length. The zero value is
// an empty lane. A lane is only meaningful together with the store its
// vehicles were pushed through; head and tail are stale while it is
// empty.
type Lane struct {
	head, tail int32
	n          int32
}

// Len returns the number of queued vehicles.
func (l *Lane) Len() int { return int(l.n) }

// Head returns the ID of the head vehicle without touching the store —
// the mixed-lane head-of-line check needs only the ID. The second
// result is false when the lane is empty.
func (l *Lane) Head() (int32, bool) {
	if l.n == 0 {
		return 0, false
	}
	return l.head, true
}

// Reset empties the lane. Its vehicles' links stay in the store,
// unread until the vehicles are pushed again.
func (l *Lane) Reset() { l.n = 0 }

// link is one vehicle's entry in a Store: when it joined its lane and
// the vehicle behind it there, which is read only while the vehicle is
// not its lane's tail.
type link struct {
	at   float64
	next int32
}

// Store holds the links of every lane of one engine, one per vehicle
// ID. Its zero value is ready to use; it grows to cover each vehicle
// pushed, so Reserve it for the vehicles a run expects to keep pushes
// free of allocation. A vehicle must be in at most one of the store's
// lanes at a time: pushing a queued vehicle again corrupts both lanes.
type Store struct {
	links []link
}

// Reserve grows the store to cover vehicle IDs below n. It never
// shrinks. Growth appends zeroed links, which the runtime does in
// place while the capacity lasts, so Push, which calls it, stays
// within the inliner's budget on the serve, travel and spawn paths.
func (s *Store) Reserve(n int) {
	if n > len(s.links) {
		s.links = append(s.links, make([]link, n-len(s.links))...)
	}
}

// Push appends vehicle v, queued since at, to the tail of lane l. It
// allocates only when v lies beyond every vehicle the store has seen
// and its reservation.
func (s *Store) Push(l *Lane, v int32, at float64) {
	if int(v) >= len(s.links) {
		s.Reserve(int(v) + 1)
	}
	s.links[v].at = at
	if l.n == 0 {
		l.head = v
	} else {
		s.links[l.tail].next = v
	}
	l.tail = v
	l.n++
}

// Pop removes and returns the head of lane l. The second result is
// false when the lane is empty.
func (s *Store) Pop(l *Lane) (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	v := l.head
	k := &s.links[v]
	l.head = k.next
	l.n--
	return Item{Vehicle: int(v), EnqueuedAt: k.at}, true
}

// Peek returns the head of lane l without removing it.
func (s *Store) Peek(l *Lane) (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	return Item{Vehicle: int(l.head), EnqueuedAt: s.links[l.head].at}, true
}

// Items returns an iterator over lane l's vehicles, head to tail. It
// yields at most Len items, so a walk ends even on a list whose links a
// bug or a corrupt restore turned into a cycle.
func (s *Store) Items(l *Lane) iter.Seq[Item] {
	return func(yield func(Item) bool) {
		v := l.head
		for left := l.n; left > 0; left-- {
			k := &s.links[v]
			if !yield(Item{Vehicle: int(v), EnqueuedAt: k.at}) {
				return
			}
			v = k.next
		}
	}
}

// Arrival is a vehicle in transit: it reaches the stop line (and joins a
// lane) at time At. Seq breaks ties so equal arrival times dequeue in
// insertion order, keeping simulations deterministic. The 32-bit fields
// keep the entry at 16 bytes — heaps are pre-sized per road from link
// capacity, so the entry size is a direct per-engine memory term.
type Arrival struct {
	At      float64
	Vehicle int32
	seq     int32
}

// less orders arrivals by (At, seq).
func (a Arrival) less(b Arrival) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Travel holds vehicles in transit along one road, ordered by stop-line
// arrival time. The zero value is ready to use; Reserve pre-sizes the
// backing storage so a heap bounded by its road's capacity never
// allocates after construction.
type Travel struct {
	h   []Arrival
	seq int32
}

// Reserve grows the heap's backing storage to hold at least capacity
// arrivals without further allocation. It never shrinks.
func (t *Travel) Reserve(capacity int) {
	if capacity <= cap(t.h) {
		return
	}
	grown := make([]Arrival, len(t.h), capacity)
	copy(grown, t.h)
	t.h = grown
}

// Len returns the number of vehicles in transit.
func (t *Travel) Len() int { return len(t.h) }

// At returns the i-th arrival in heap array order, 0 <= i < Len(). The
// order is the heap's, not the arrival order; it is for assertions
// that visit every vehicle in transit.
func (t *Travel) At(i int) Arrival { return t.h[i] }

// Add schedules a vehicle to reach the stop line at time at.
func (t *Travel) Add(vehicle int, at float64) {
	t.seq++
	t.h = append(t.h, Arrival{At: at, Vehicle: int32(vehicle), seq: t.seq})
	// Sift up.
	h := t.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// PopDue removes and returns the earliest vehicle whose arrival time is
// at or before deadline. The second result is false when none is due.
func (t *Travel) PopDue(deadline float64) (Arrival, bool) {
	if len(t.h) == 0 || t.h[0].At > deadline {
		return Arrival{}, false
	}
	h := t.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = Arrival{}
	h = h[:n]
	t.h = h
	// Sift down.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top, true
}

// Reset empties the transit set, keeping the backing storage and the
// sequence counter (determinism only needs relative order within a run,
// but Reset rewinds the counter too so replays are byte-identical).
func (t *Travel) Reset() {
	t.h = t.h[:0]
	t.seq = 0
}

// Peek returns the earliest in-transit vehicle without removing it.
func (t *Travel) Peek() (Arrival, bool) {
	if len(t.h) == 0 {
		return Arrival{}, false
	}
	return t.h[0], true
}

// Slab is shared backing storage for many travel heaps: one array of
// arrivals an engine sizes once from its roads' capacities and carves
// every heap's reservation out of, so reserving all its heaps costs one
// allocation instead of one per heap (DESIGN.md §5).
//
// Each reservation is a capacity-clamped window: a heap that outgrows
// its window regrows into fresh storage, and never writes into its
// neighbour's.
type Slab struct {
	arr []Arrival
}

// NewSlab allocates a slab holding travelSlots heap entries.
func NewSlab(travelSlots int) *Slab {
	return &Slab{arr: make([]Arrival, travelSlots)}
}

// ReserveTravel is Travel.Reserve with the heap carved from the slab.
// A heap already holding capacity slots keeps its storage; a request
// the slab has no room left for falls back to fresh storage.
func (s *Slab) ReserveTravel(t *Travel, capacity int) {
	switch {
	case capacity <= cap(t.h):
	case capacity > len(s.arr):
		t.Reserve(capacity)
	default:
		h := s.arr[:len(t.h):capacity]
		copy(h, t.h)
		t.h = h
		s.arr = s.arr[capacity:]
	}
}
