// Package queue provides the FIFO primitives of the traffic model: the
// dedicated turning-lane queue (vehicles waiting at a stop line with their
// enqueue times) and a time-ordered heap for vehicles travelling along a
// road toward it.
//
// Lane is a ring buffer over structure-of-arrays storage: the vehicle
// ids and enqueue times live in two parallel rings rather than one
// []Item ring, so the serve hot loop — which peeks ids far more often
// than it needs times — streams a dense 4-byte-per-entry array instead
// of 16-byte pairs (DESIGN.md §16). Pre-sized to its road's link
// capacity a lane never touches the heap again — no append growth and
// no compaction copy, no matter how the queue churns (see DESIGN.md
// §5). Travel implements its sift operations directly on []Arrival
// rather than through container/heap, whose interface methods box every
// element and would put two heap allocations on the per-vehicle hot
// path.
package queue

// Item is one queued vehicle: its identifier and the time it joined the
// queue, from which waiting time is computed at service.
type Item struct {
	Vehicle    int
	EnqueuedAt float64
}

// Lane is a FIFO queue of vehicles, implemented as a ring buffer over
// two parallel arrays (vehicle ids and enqueue times). The zero value
// is an empty lane ready to use; Reserve pre-sizes the rings so a lane
// bounded by its road's capacity never allocates after construction.
// An unreserved (or overfull) lane grows by doubling — the storage
// never shrinks and elements are never reshuffled on pop.
type Lane struct {
	veh  []int32   // ring of vehicle ids; len(veh) is the fixed capacity
	at   []float64 // parallel ring of enqueue times
	head int       // index of the oldest element
	n    int       // number of queued elements
}

// Reserve grows the ring storage to hold at least capacity items without
// further allocation. It never shrinks. Call it at engine construction,
// sized from the road's link capacity.
func (l *Lane) Reserve(capacity int) {
	if capacity <= len(l.veh) {
		return
	}
	l.regrow(capacity)
}

// regrow moves the rings into fresh storage of the given capacity.
func (l *Lane) regrow(capacity int) {
	l.moveTo(make([]int32, capacity), make([]float64, capacity))
}

// moveTo moves the rings into the given storage of equal length,
// unwrapping them so head returns to index 0.
func (l *Lane) moveTo(veh []int32, at []float64) {
	for i := 0; i < l.n; i++ {
		j := (l.head + i) % len(l.veh)
		veh[i] = l.veh[j]
		at[i] = l.at[j]
	}
	l.veh = veh
	l.at = at
	l.head = 0
}

// Len returns the number of queued vehicles.
func (l *Lane) Len() int { return l.n }

// Cap returns the ring capacity (how many vehicles fit without growth).
func (l *Lane) Cap() int { return len(l.veh) }

// Push appends a vehicle to the tail of the lane, doubling the rings
// only when they are full (never for a lane reserved at its bound).
func (l *Lane) Push(vehicle int, at float64) {
	if l.n == len(l.veh) {
		next := 2 * len(l.veh)
		if next < 8 {
			next = 8
		}
		l.regrow(next)
	}
	// head < len and n <= len, so one conditional subtract wraps the tail.
	tail := l.head + l.n
	if tail >= len(l.veh) {
		tail -= len(l.veh)
	}
	l.veh[tail] = int32(vehicle)
	l.at[tail] = at
	l.n++
}

// Pop removes and returns the head of the lane. The second result is false
// when the lane is empty.
func (l *Lane) Pop() (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	it := Item{Vehicle: int(l.veh[l.head]), EnqueuedAt: l.at[l.head]}
	l.head++
	if l.head == len(l.veh) {
		l.head = 0
	}
	l.n--
	return it, true
}

// Peek returns the head of the lane without removing it.
func (l *Lane) Peek() (Item, bool) {
	if l.n == 0 {
		return Item{}, false
	}
	return Item{Vehicle: int(l.veh[l.head]), EnqueuedAt: l.at[l.head]}, true
}

// HeadVehicle returns the id of the head vehicle without touching the
// enqueue-time ring — the mixed-lane head-of-line check needs only the
// id, and the narrower load keeps that probe on one cache line. The
// second result is false when the lane is empty.
func (l *Lane) HeadVehicle() (int32, bool) {
	if l.n == 0 {
		return 0, false
	}
	return l.veh[l.head], true
}

// At returns the i-th queued item counted from the head (0-based). It is
// intended for end-of-run accounting and assertions; callers must keep
// i < Len().
func (l *Lane) At(i int) Item {
	j := (l.head + i) % len(l.veh)
	return Item{Vehicle: int(l.veh[j]), EnqueuedAt: l.at[j]}
}

// Reset empties the lane, keeping the ring storage.
func (l *Lane) Reset() {
	l.head = 0
	l.n = 0
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

// Slab is shared backing storage for many lanes and travel heaps: one
// array of vehicle ids and one of enqueue times for the lane rings, and
// one array of arrivals for the heaps. An engine sizes it once from its
// roads' capacities and carves every reservation out of it, so
// reserving all its queues costs three allocations instead of two per
// lane and one per heap (DESIGN.md §5).
//
// Each reservation is a capacity-clamped window: a lane or heap that
// outgrows its window — a spawn queue under sustained oversaturation —
// regrows into fresh storage, and never writes into its neighbour's.
type Slab struct {
	veh []int32
	at  []float64
	arr []Arrival
}

// NewSlab allocates a slab holding laneSlots lane-ring slots and
// travelSlots heap entries.
func NewSlab(laneSlots, travelSlots int) *Slab {
	return &Slab{
		veh: make([]int32, laneSlots),
		at:  make([]float64, laneSlots),
		arr: make([]Arrival, travelSlots),
	}
}

// ReserveLane is Lane.Reserve with the rings carved from the slab. A
// lane already holding capacity slots keeps its rings; a request the
// slab has no room left for falls back to fresh storage.
func (s *Slab) ReserveLane(l *Lane, capacity int) {
	switch {
	case capacity <= len(l.veh):
	case capacity > len(s.veh):
		l.Reserve(capacity)
	default:
		l.moveTo(s.veh[:capacity:capacity], s.at[:capacity:capacity])
		s.veh, s.at = s.veh[capacity:], s.at[capacity:]
	}
}

// ReserveTravel is Travel.Reserve with the heap carved from the slab,
// under the same rules as ReserveLane.
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
