package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// calibUS times a fixed integer loop in microseconds: the host-speed
// diagnostic (host.calib_us). It is reported, never gated on; it tells a
// run that landed in a slow phase of the machine from a code change.
func calibUS() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	calibSink = x
	return float64(d) / 1e3
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// clockNS measures what one time.Now costs in this process
// (host.clock_ns): the fastest of several batches, so a preempted batch
// does not count.
func clockNS() float64 {
	const n = 1 << 16
	best := math.Inf(1)
	for b := 0; b < 8; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			clockSink = time.Now()
		}
		best = math.Min(best, float64(time.Since(t0))/n)
	}
	return best
}

// clockSink keeps the clock loop's reads from being optimized away.
var clockSink time.Time

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// memSample holds the runtime's cumulative allocation and GC counters,
// or the difference of two readings.
type memSample struct {
	alloc, mallocs, gcs, pauseNS float64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{float64(ms.TotalAlloc), float64(ms.Mallocs), float64(ms.NumGC), float64(ms.PauseTotalNs)}
}

func (m memSample) sub(o memSample) memSample {
	return memSample{m.alloc - o.alloc, m.mallocs - o.mallocs, m.gcs - o.gcs, m.pauseNS - o.pauseNS}
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; xs is left unmodified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
