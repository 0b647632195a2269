//go:build race

package sim_test

// raceEnabled reports whether the tests run under the race detector,
// whose runtime makes the engine's construction allocate more bytes.
const raceEnabled = true
