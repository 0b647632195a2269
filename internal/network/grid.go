package network

import "fmt"

// GridSpec parameterizes a rectangular grid network of signalized
// junctions with boundary terminals on all four sides, the topology of the
// paper's evaluation (a 3×3 grid).
type GridSpec struct {
	// Rows and Cols are the junction grid dimensions (row 0 at the
	// north, column 0 at the west).
	Rows, Cols int
	// Spacing is the distance in meters between adjacent junctions,
	// which is also the length of internal roads.
	Spacing float64
	// BoundaryLength is the length in meters of entry/exit roads between
	// a terminal and its edge junction. Zero defaults to Spacing.
	BoundaryLength float64
	// Speed is the free-flow speed in m/s on every road.
	Speed float64
	// Capacity is W_i, the vehicle capacity of every network road
	// (boundary exit roads toward terminals are unbounded sinks).
	Capacity int
	// Mu is the service rate in veh/s assigned to every movement.
	Mu float64
}

// DefaultGridSpec returns the paper's evaluation parameters: a 3×3 grid
// with W_i = 120 and µ = 1, with geometry chosen so roads hold roughly a
// W=120 queue (Section V).
func DefaultGridSpec() GridSpec {
	return GridSpec{
		Rows:           3,
		Cols:           3,
		Spacing:        300,
		BoundaryLength: 300,
		Speed:          13.9, // 50 km/h
		Capacity:       120,
		Mu:             1,
	}
}

// GridNetwork is a Network plus the grid bookkeeping the experiment
// harness needs: junction coordinates and entry/exit roads by boundary
// side.
type GridNetwork struct {
	*Network
	Spec GridSpec

	junctions [][]NodeID
	entries   map[Dir][]RoadID
	exits     map[Dir][]RoadID
}

// Grid builds a grid network per spec.
func Grid(spec GridSpec) (*GridNetwork, error) {
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, fmt.Errorf("network: grid must have at least one row and column, got %dx%d", spec.Rows, spec.Cols)
	}
	if spec.Spacing <= 0 || spec.Speed <= 0 {
		return nil, fmt.Errorf("network: grid spacing and speed must be positive")
	}
	if spec.Capacity <= 0 {
		return nil, fmt.Errorf("network: grid capacity must be positive")
	}
	if spec.Mu <= 0 {
		return nil, fmt.Errorf("network: grid service rate must be positive")
	}
	if spec.BoundaryLength <= 0 {
		spec.BoundaryLength = spec.Spacing
	}

	b := NewBuilder().SetMu(ConstantMu(spec.Mu))
	g := &GridNetwork{
		Spec:    spec,
		entries: make(map[Dir][]RoadID),
		exits:   make(map[Dir][]RoadID),
	}

	// Junction nodes.
	g.junctions = make([][]NodeID, spec.Rows)
	for r := 0; r < spec.Rows; r++ {
		g.junctions[r] = make([]NodeID, spec.Cols)
		for c := 0; c < spec.Cols; c++ {
			name := fmt.Sprintf("J%d%d", r, c)
			g.junctions[r][c] = b.AddNode(JunctionNode, float64(c)*spec.Spacing, float64(r)*spec.Spacing, name)
		}
	}

	// Internal roads, both directions between orthogonal neighbors.
	addPair := func(a, bn NodeID, heading Dir, length float64) {
		an, bnn := a, bn
		b.AddRoad(an, bnn, heading, length, spec.Speed, spec.Capacity,
			fmt.Sprintf("%s->%s", nodeName(b, an), nodeName(b, bnn)))
		b.AddRoad(bnn, an, heading.Opposite(), length, spec.Speed, spec.Capacity,
			fmt.Sprintf("%s->%s", nodeName(b, bnn), nodeName(b, an)))
	}
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			if c+1 < spec.Cols {
				addPair(g.junctions[r][c], g.junctions[r][c+1], East, spec.Spacing)
			}
			if r+1 < spec.Rows {
				addPair(g.junctions[r][c], g.junctions[r+1][c], South, spec.Spacing)
			}
		}
	}

	// Boundary terminals: one per edge junction per open side. The entry
	// road (terminal -> junction) carries the network capacity; the exit
	// road (junction -> terminal) is an unbounded sink with zero
	// pressure, per DESIGN.md.
	addTerminal := func(j NodeID, side Dir) {
		dx, dy := side.Vector()
		jn := b.nodes[j]
		t := b.AddNode(TerminalNode,
			jn.X+float64(float64(dx)*spec.BoundaryLength),
			jn.Y+float64(float64(dy)*spec.BoundaryLength),
			fmt.Sprintf("T%v-%s", side, jn.Name))
		entry := b.AddRoad(t, j, side.Opposite(), spec.BoundaryLength, spec.Speed, spec.Capacity,
			fmt.Sprintf("in-%v-%s", side, jn.Name))
		exit := b.AddRoad(j, t, side, spec.BoundaryLength, spec.Speed, 0,
			fmt.Sprintf("out-%v-%s", side, jn.Name))
		g.entries[side] = append(g.entries[side], entry)
		g.exits[side] = append(g.exits[side], exit)
	}
	for c := 0; c < spec.Cols; c++ {
		addTerminal(g.junctions[0][c], North)
		addTerminal(g.junctions[spec.Rows-1][c], South)
	}
	for r := 0; r < spec.Rows; r++ {
		addTerminal(g.junctions[r][spec.Cols-1], East)
		addTerminal(g.junctions[r][0], West)
	}

	n, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.Network = n
	return g, nil
}

func nodeName(b *Builder, id NodeID) string {
	if int(id) < len(b.nodes) {
		return b.nodes[id].Name
	}
	return fmt.Sprintf("n%d", id)
}

// Rows returns the number of junction rows.
func (g *GridNetwork) Rows() int { return g.Spec.Rows }

// Cols returns the number of junction columns.
func (g *GridNetwork) Cols() int { return g.Spec.Cols }

// JunctionAt returns the node ID of the junction at the given grid
// coordinates (row 0 north, column 0 west). It returns NoNode when out of
// range.
func (g *GridNetwork) JunctionAt(row, col int) NodeID {
	if row < 0 || row >= len(g.junctions) || col < 0 || col >= len(g.junctions[row]) {
		return NoNode
	}
	return g.junctions[row][col]
}

// Entries returns the entry roads on the given boundary side, ordered by
// column (north/south) or row (east/west). "Entering from the north" means
// the entry roads on the north side, heading south.
func (g *GridNetwork) Entries(side Dir) []RoadID { return g.entries[side] }

// Exits returns the exit roads on the given boundary side.
func (g *GridNetwork) Exits(side Dir) []RoadID { return g.exits[side] }
