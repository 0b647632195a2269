package sensing

// expFilter is the connected-vehicle estimator: it tracks the measured
// level with a first-order exponential filter, est' = est +
// alpha·(level − est), with alpha in (0, 1] (1 passes levels through). A
// positively detected empty queue snaps the estimate to zero, so the
// filter does not hold phantom vehicles after a drain.
func expFilter(est, level, alpha float64, empty bool) float64 {
	if empty {
		return 0
	}
	return est + float64(alpha*(level-est))
}

// integrateCount is the loop detector's estimator, the classic queue
// estimator for crossing detectors: it integrates the measured flow
// delta into a running count, est' = est + delta, clamped to [0, max]
// (max 0 leaves it unbounded). Missed events make it drift (the lost
// deltas are never recovered); a positive empty-queue detection
// resynchronizes it to zero.
func integrateCount(est, delta, max float64, empty bool) float64 {
	if empty {
		return 0
	}
	est += delta
	if est < 0 {
		est = 0
	}
	if max > 0 && est > max {
		est = max
	}
	return est
}
