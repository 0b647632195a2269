package experiment

import (
	"fmt"

	"utilbp/internal/chaos"
)

// ChaosSweep is the soak entrypoint over the randomized fault-injection
// harness (internal/chaos): it drills n consecutive generator seeds
// starting at firstSeed — each a random-but-valid disruption schedule
// crossed with a random grid, controller family and sensor — asserting
// invariants, snapshot/restore equivalence and Reset replay per
// scenario. Scenarios are independent, so they run on the pooled sweep
// runner, which stops handing out seeds after the first failure; the
// returned descriptions are in seed order. Use it to soak far past the
// CI fuzz smoke's budget:
//
//	descs, err := experiment.ChaosSweep(1, 10000)
func ChaosSweep(firstSeed uint64, n int) ([]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiment: ChaosSweep needs n > 0 scenarios, got %d", n)
	}
	return runCells(n, poolWidth(), nil,
		func(i int) cellLabels { return cellLabels{workload: fmt.Sprintf("chaos seed %d", firstSeed+uint64(i))} },
		func(_ struct{}, i int) (string, error) {
			sc, err := chaos.Generate(firstSeed + uint64(i))
			if err != nil {
				return "", err
			}
			return sc.Describe(), chaos.Drill(sc)
		})
}
