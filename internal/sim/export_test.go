package sim

// QuietOffered returns how many junctions the engine's last batched
// control round offered as quiet (signal.Batch.Quiet), so tests can
// assert that the quiet-junction skip engaged without a public counter.
func QuietOffered(e *Engine) int {
	n := 0
	for _, q := range e.batch.Quiet {
		if q {
			n++
		}
	}
	return n
}
