// Rushhour exercises the library below the facade: it builds a custom
// 2×4 corridor network, drives it with a hand-written time-varying demand
// profile (quiet -> rush-hour surge -> quiet), and compares UTIL-BP
// against a pretimed controller while sampling network occupancy, showing
// how the adaptive controller absorbs the surge.
//
//	go run ./examples/rushhour
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"utilbp/internal/core"
	"utilbp/internal/fixedtime"
	"utilbp/internal/network"
	"utilbp/internal/rng"
	"utilbp/internal/scenario"
	"utilbp/internal/signal"
	"utilbp/internal/sim"
	"utilbp/internal/stats"
)

const (
	quietRate = 0.05 // veh/s per entry road off-peak
	rushRate  = 0.30 // veh/s per entry road during the surge
	rushStart = 600.0
	rushEnd   = 1800.0
	horizon   = 3600
)

func main() {
	grid, err := network.Grid(network.GridSpec{
		Rows: 2, Cols: 4,
		Spacing: 250, BoundaryLength: 250,
		Speed: 13.9, Capacity: 80, Mu: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Rush hour hits the west-east corridor: western entries surge.
	rate := func(road network.RoadID, t float64) float64 {
		base := quietRate
		if t >= rushStart && t < rushEnd {
			for _, rid := range grid.Entries(network.West) {
				if rid == road {
					return rushRate
				}
			}
			base = 0.08
		}
		return base
	}

	controllers := map[string]signal.Factory{
		"UTIL-BP": core.Factory(core.Options{AmberSteps: 4}),
		"FIXED":   fixedtime.Factory(fixedtime.Options{GreenSteps: 20, AmberSteps: 4}),
	}
	// occupancy samples the vehicles in the network every `every`
	// mini-slots of dt seconds.
	const every = 120
	var dt float64
	occupancy := map[string][]int{}
	waits := map[string]float64{}

	for _, name := range []string{"UTIL-BP", "FIXED"} {
		root := rng.New(99)
		router, routes := scenario.NewGridRouter(grid, nil, root.Split("routes"))
		engine, err := sim.New(sim.Config{
			Net:         grid.Network,
			Controllers: controllers[name],
			Demand:      sim.NewPoissonDemand(root.Split("demand"), rate),
			Router:      router,
			Routes:      routes,
		})
		if err != nil {
			log.Fatal(err)
		}
		dt = engine.DeltaT()
		for k := 0; k < int(math.Round(horizon/dt)); k++ {
			engine.Run(1)
			if k%every == 0 {
				tot := engine.Totals()
				occupancy[name] = append(occupancy[name], tot.Entered-tot.Exited)
			}
		}
		engine.FinalizeWaits()
		waits[name] = stats.SummarizeArena(engine.Arena()).MeanWait
	}

	fmt.Println("Rush-hour surge on a 2x4 corridor (west entries x6 for 20 min)")
	fmt.Println("\nvehicles in network (sampled every 2 min):")
	fmt.Printf("%8s  %-30s %-30s\n", "time", "UTIL-BP", "FIXED @20s")
	util, fixed := occupancy["UTIL-BP"], occupancy["FIXED"]
	for i := range util {
		mark := " "
		t := float64(i*every) * dt
		if t >= rushStart && t < rushEnd {
			mark = "*"
		}
		fmt.Printf("%6.0f s%s  %-30s %-30s\n", t, mark, bar(util[i]), bar(fixed[i]))
	}
	fmt.Println("(* = surge active; each # is 10 vehicles)")
	fmt.Printf("\naverage queuing time: UTIL-BP %.1f s, FIXED %.1f s (%.0f%% better)\n",
		waits["UTIL-BP"], waits["FIXED"],
		100*(waits["FIXED"]-waits["UTIL-BP"])/waits["FIXED"])
}

func bar(v int) string {
	n := v / 10
	if n > 30 {
		n = 30
	}
	return strings.Repeat("#", n)
}
