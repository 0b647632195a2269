// Package queue provides the one FIFO primitive of the traffic model: a
// lane of vehicles, each with a time — a road's vehicles in transit with
// their stop-line arrival times, a turning lane's or a spawn queue's
// waiting vehicles with their enqueue times. A road delivers its
// vehicles in the order they entered, since they share one free-flow
// travel time and enter in clock order, so its transit list is a lane
// too (DESIGN.md §2).
//
// A vehicle is in at most one lane at a time, so lanes own no storage:
// a Lane is a 12-byte header (head, tail, count) threaded through one
// Store, which holds a 16-byte link per vehicle ID — its time and the
// next vehicle in its lane. The store grows with the vehicles it has
// seen and never shrinks, so the lanes of an engine whose store is
// reserved for its expected vehicles never allocate, no matter how long
// a queue grows or how it churns; a pop reads one link and a push
// writes two, the new vehicle's and the old tail's (DESIGN.md §5).
package queue

import "iter"

// Item is one queued vehicle: its identifier and its time — when it
// joined a waiting queue, from which waiting time is computed at
// service, or when it reaches the stop line, for a vehicle in transit.
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

// link is one vehicle's entry in a Store: its time in its lane (when it
// joined a waiting queue, or reaches the stop line in transit) and the
// vehicle behind it there, which is read only while the vehicle is not
// its lane's tail.
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

// Push appends vehicle v with time at to the tail of lane l. It
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
