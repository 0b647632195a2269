package signaltest

import "utilbp/internal/signal"

// LinkObs is one link's scripted observation: the columns of its two
// road rows a controller may read (signal.Row), flattened into one
// value that scripts and unit tests write. Put converts it into the
// pair layout a sensed engine's controllers read, Get converts back.
type LinkObs struct {
	// Queue, InTransit and ApproachQueue are the incoming row's
	// Queued[Turn], Transit[Turn] and Total; InCapacity is its Cap.
	Queue, InTransit, ApproachQueue, InCapacity int32
	// OutQueue, OutOccupancy and OutCapacity are the outgoing row's
	// Total, Occ and Cap; OutTurnQueue and OutTurnJoins its Queued and
	// Joins.
	OutQueue, OutOccupancy, OutCapacity int32
	OutTurnQueue, OutTurnJoins          [signal.NumTurns]int32
	// Mu is the link's service rate.
	Mu float64
}

// Put writes l as link gl of the pair layout: table[gl] points at rows
// signal.PairRows(gl), which receive l's columns. The link's movement
// is gl mod NumTurns, so a reader that ignores Link.Turn reads zeros.
func Put(table []signal.Link, rows []signal.Row, gl int, l *LinkObs) {
	in, out := signal.PairRows(int32(gl))
	t := int32(gl % signal.NumTurns)
	table[gl] = signal.Link{Mu: l.Mu, In: in, Out: out, Turn: t}
	rows[in] = signal.Row{Total: l.ApproachQueue, Cap: l.InCapacity}
	rows[in].Queued[t], rows[in].Transit[t] = l.Queue, l.InTransit
	rows[out] = signal.Row{Queued: l.OutTurnQueue, Joins: l.OutTurnJoins, Total: l.OutQueue, Occ: l.OutOccupancy, Cap: l.OutCapacity}
}

// Pairs converts links into a link table and its rows in the pair
// layout.
func Pairs(links ...LinkObs) ([]signal.Link, []signal.Row) {
	table := make([]signal.Link, len(links))
	rows := make([]signal.Row, 2*len(links))
	for gl := range links {
		Put(table, rows, gl, &links[gl])
	}
	return table, rows
}

// Get reads the scripted view of link l back out of rows.
func Get(l *signal.Link, rows []signal.Row) LinkObs {
	in, out := &rows[l.In], &rows[l.Out]
	return LinkObs{
		Queue: in.Queued[l.Turn], InTransit: in.Transit[l.Turn], ApproachQueue: in.Total, InCapacity: in.Cap,
		OutQueue: out.Total, OutOccupancy: out.Occ, OutCapacity: out.Cap,
		OutTurnQueue: out.Queued, OutTurnJoins: out.Joins, Mu: l.Mu,
	}
}
