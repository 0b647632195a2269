package sim_test

import (
	"testing"

	"utilbp/internal/network"
	"utilbp/internal/scenario"
	"utilbp/internal/sim"
)

// TestRoadTablesMatchNetwork checks what New derives once per road
// against the network it reads, on every road of every registered
// workload: the stored travel time is Road.TravelTime() to the bit, and
// bit t of the feasible mask is set exactly when the junction ahead has
// a link for movement t from the road's approach. Exit roads have no
// junction ahead and an empty mask.
func TestRoadTablesMatchNetwork(t *testing.T) {
	for _, w := range scenario.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			built, err := w.Setup.Build(w.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			net := built.Grid.Network
			e, err := sim.New(sim.Config{
				Net:         net,
				Controllers: w.Setup.UtilBP(),
				Demand:      built.Demand,
				Router:      built.Router,
				Routes:      built.Routes,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range net.Roads {
				r := &net.Roads[i]
				travel, feasible := sim.RoadTables(e, r.ID)
				if travel != r.TravelTime() {
					t.Fatalf("road %s: travel time %v, Road.TravelTime() %v", r.Name, travel, r.TravelTime())
				}
				var want uint8
				if j := net.Junction(r.To); j != nil {
					for _, turn := range network.Turns {
						if j.LinkFor(r.Heading.Opposite(), turn) >= 0 {
							want |= 1 << turn
						}
					}
				}
				if feasible != want {
					t.Fatalf("road %s: feasible mask %03b, junction links give %03b", r.Name, feasible, want)
				}
			}
		})
	}
}
