package network

import (
	"bytes"
	"encoding/json"
	"testing"
)

func mustGrid(t *testing.T, spec GridSpec) *GridNetwork {
	t.Helper()
	g, err := Grid(spec)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	return g
}

func TestGrid3x3Shape(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	if got := len(g.Junctions); got != 9 {
		t.Fatalf("junction count = %d, want 9", got)
	}
	// 3x3 grid: 12 internal edges * 2 directions + 12 terminals * 2 = 48.
	if got := len(g.Roads); got != 48 {
		t.Fatalf("road count = %d, want 48", got)
	}
	// 9 junctions + 12 terminals.
	if got := len(g.Nodes); got != 21 {
		t.Fatalf("node count = %d, want 21", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGridEveryJunctionFourApproaches(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	for i := range g.Junctions {
		j := &g.Junctions[i]
		for _, d := range Dirs {
			if j.In[d] == NoRoad {
				t.Errorf("junction %d missing approach from %v", j.Node, d)
			}
			if j.Out[d] == NoRoad {
				t.Errorf("junction %d missing exit toward %v", j.Node, d)
			}
		}
		if got := len(j.Links); got != 12 {
			t.Errorf("junction %d has %d links, want 12", j.Node, got)
		}
		if got := j.NumPhases(); got != 4 {
			t.Errorf("junction %d has %d phases, want 4", j.Node, got)
		}
	}
}

// TestGridPhaseTableMatchesFigure1 checks the phase table of the paper's
// Figure 1: c1 = N/S straight+left (4 links), c2 = N/S right (2), c3 = E/W
// straight+left (4), c4 = E/W right (2).
func TestGridPhaseTableMatchesFigure1(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	j := g.Junction(g.JunctionAt(1, 1))
	if j == nil {
		t.Fatal("center junction missing")
	}
	wantSizes := []int{4, 2, 4, 2}
	type laneKey struct {
		a Dir
		t Turn
	}
	wantLanes := [][]laneKey{
		{{North, Straight}, {North, Left}, {South, Straight}, {South, Left}},
		{{North, Right}, {South, Right}},
		{{East, Straight}, {East, Left}, {West, Straight}, {West, Left}},
		{{East, Right}, {West, Right}},
	}
	for pi, p := range j.Phases {
		if len(p) != wantSizes[pi] {
			t.Fatalf("phase %d has %d links, want %d", pi+1, len(p), wantSizes[pi])
		}
		got := make(map[laneKey]bool)
		for _, li := range p {
			l := j.Links[li]
			got[laneKey{l.Approach, l.Turn}] = true
		}
		for _, lk := range wantLanes[pi] {
			if !got[lk] {
				t.Errorf("phase %d missing lane %v/%v", pi+1, lk.a, lk.t)
			}
		}
	}
}

func TestGridEntriesExits(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	for _, side := range Dirs {
		if got := len(g.Entries(side)); got != 3 {
			t.Errorf("side %v has %d entries, want 3", side, got)
		}
		if got := len(g.Exits(side)); got != 3 {
			t.Errorf("side %v has %d exits, want 3", side, got)
		}
		for _, rid := range g.Entries(side) {
			r := g.Road(rid)
			if r.Heading != side.Opposite() {
				t.Errorf("entry from %v has heading %v", side, r.Heading)
			}
			if g.Node(r.From).Kind != TerminalNode {
				t.Errorf("entry road %d does not start at a terminal", rid)
			}
			if !r.Bounded() {
				t.Errorf("entry road %d should be capacity-bounded", rid)
			}
		}
		for _, rid := range g.Exits(side) {
			r := g.Road(rid)
			if r.Bounded() {
				t.Errorf("exit road %d should be an unbounded sink", rid)
			}
		}
	}
	if got := len(g.EntryRoads()); got != 12 {
		t.Errorf("EntryRoads = %d, want 12", got)
	}
	if got := len(g.ExitRoads()); got != 12 {
		t.Errorf("ExitRoads = %d, want 12", got)
	}
}

func TestGridJunctionAt(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	if g.JunctionAt(0, 2) == NoNode {
		t.Error("top-right junction missing")
	}
	if g.JunctionAt(-1, 0) != NoNode || g.JunctionAt(0, 3) != NoNode {
		t.Error("out-of-range JunctionAt should return NoNode")
	}
	// Top-right junction: its east approach comes from the east terminal.
	j := g.Junction(g.JunctionAt(0, 2))
	eastIn := g.Road(j.In[East])
	if g.Node(eastIn.From).Kind != TerminalNode {
		t.Error("top-right junction east approach should come from the boundary")
	}
	// The center junction's approaches are internal roads.
	c := g.Junction(g.JunctionAt(1, 1))
	for _, d := range Dirs {
		if g.Node(g.Road(c.In[d]).From).Kind != JunctionNode {
			t.Errorf("center junction approach %v is not internal", d)
		}
	}
}

func TestGridRejectsBadSpecs(t *testing.T) {
	bad := []GridSpec{
		{Rows: 0, Cols: 3, Spacing: 100, Speed: 10, Capacity: 10, Mu: 1},
		{Rows: 3, Cols: 0, Spacing: 100, Speed: 10, Capacity: 10, Mu: 1},
		{Rows: 3, Cols: 3, Spacing: 0, Speed: 10, Capacity: 10, Mu: 1},
		{Rows: 3, Cols: 3, Spacing: 100, Speed: 0, Capacity: 10, Mu: 1},
		{Rows: 3, Cols: 3, Spacing: 100, Speed: 10, Capacity: 0, Mu: 1},
		{Rows: 3, Cols: 3, Spacing: 100, Speed: 10, Capacity: 10, Mu: 0},
	}
	for i, spec := range bad {
		if _, err := Grid(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestGrid1x1(t *testing.T) {
	spec := DefaultGridSpec()
	spec.Rows, spec.Cols = 1, 1
	g := mustGrid(t, spec)
	if len(g.Junctions) != 1 {
		t.Fatalf("junctions = %d", len(g.Junctions))
	}
	j := &g.Junctions[0]
	if len(j.Links) != 12 || j.NumPhases() != 4 {
		t.Fatalf("single junction links=%d phases=%d", len(j.Links), j.NumPhases())
	}
	if got := len(g.EntryRoads()); got != 4 {
		t.Fatalf("1x1 entries = %d, want 4", got)
	}
}

func TestGridMaxCapacity(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	if got := g.MaxCapacity(); got != 120 {
		t.Fatalf("MaxCapacity = %d, want 120", got)
	}
}

func TestGridRectangular(t *testing.T) {
	spec := DefaultGridSpec()
	spec.Rows, spec.Cols = 2, 4
	g := mustGrid(t, spec)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Entries: north/south sides have Cols each, east/west have Rows.
	if got := len(g.Entries(North)); got != 4 {
		t.Errorf("north entries = %d, want 4", got)
	}
	if got := len(g.Entries(East)); got != 2 {
		t.Errorf("east entries = %d, want 2", got)
	}
}

// TestNetworkJSONRoundTrip decodes WriteJSON's output back into its
// serialized form and checks that every node, road and the service rate
// come through unchanged.
func TestNetworkJSONRoundTrip(t *testing.T) {
	g := mustGrid(t, DefaultGridSpec())
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var jn jsonNetwork
	if err := json.NewDecoder(&buf).Decode(&jn); err != nil {
		t.Fatalf("decode WriteJSON output: %v", err)
	}
	if len(jn.Nodes) != len(g.Nodes) || len(jn.Roads) != len(g.Roads) {
		t.Fatalf("round trip changed shape: %d nodes, %d roads; want %d, %d",
			len(jn.Nodes), len(jn.Roads), len(g.Nodes), len(g.Roads))
	}
	for i, n := range g.Nodes {
		want := jsonNode{Kind: n.Kind.String(), X: n.X, Y: n.Y, Name: n.Name}
		if jn.Nodes[i] != want {
			t.Fatalf("node %d: got %+v, want %+v", i, jn.Nodes[i], want)
		}
	}
	for i, r := range g.Roads {
		want := jsonRoad{From: r.From, To: r.To, Heading: r.Heading.String(),
			Length: r.Length, Speed: r.SpeedLimit, Capacity: r.Capacity, Name: r.Name}
		if jn.Roads[i] != want {
			t.Fatalf("road %d: got %+v, want %+v", i, jn.Roads[i], want)
		}
	}
	if want := g.Junctions[0].Links[0].Mu; jn.Mu != want {
		t.Fatalf("mu = %v, want %v", jn.Mu, want)
	}
}
