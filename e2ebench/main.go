// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the library's public entry points for a fixed
// measuring time, checks the simulated results against recorded digests
// and against the run's own first pass, and prints every metric by name
// and unit as one JSON object on the last line of standard output.
//
//	bash e2ebench/run.sh --workload city-loaded --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes its spans to
// --spans. README.md says why each workload exists, which layer each
// metric belongs to, and how far the metrics spread across runs.
package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// digestsJSON holds the recorded output digest of each workload for the
// default seed (1) and the held-out seed (2): workload → seed → digest.
//
//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named benchmark workload. measure runs the untraced
// end-to-end measurement, trace the traced per-layer run. dropped, when
// set, is why BENCHMARK.json does not list the workload; the driver still
// runs it, and prints the reason.
type workload struct {
	name    string
	measure func(b *bench) error
	trace   func(b *bench) error
	dropped string
}

var workloads = []workload{
	{"paper-table3", func(b *bench) error { return newTable3(b.seed).measure(b) }, func(b *bench) error { return newTable3(b.seed).trace(b) },
		"on a shared 2-vCPU host its ~3 µs steps and pooled passes spread 10-27 % across runs of the same code, near the 25 % bound; " +
			"zoo-downtown runs the same pool, per-cell rewind, run tail and CAP-BP and UTIL-BP layers"},
	{"city-loaded", func(b *bench) error { return newCityLoaded(b.seed).measure(b) }, func(b *bench) error { return newCityLoaded(b.seed).trace(b) }, ""},
	{"city-incident-drain", func(b *bench) error { return newCityDrain(b.seed).measure(b) }, func(b *bench) error { return newCityDrain(b.seed).trace(b) }, ""},
	{"zoo-downtown", func(b *bench) error { return newZoo(b.seed).measure(b) }, func(b *bench) error { return newZoo(b.seed).trace(b) }, ""},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the inputs are generated from it")
	secs := fs.Float64("seconds", 20, "measuring time in seconds")
	traced := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 runs the traced per-layer run")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *traced < 0 || *traced > 1 || !(*secs > 0) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if w.dropped != "" {
		fmt.Fprintf(stderr, "e2ebench: %s is not in BENCHMARK.json: %s\n", w.name, w.dropped)
	}
	want, err := recordedDigest(w.name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	b := &bench{
		seed:     *seed,
		deadline: time.Now().Add(time.Duration(*secs * float64(time.Second))),
		stderr:   stderr,
		check:    checker{want: want},
		metrics:  map[string]metric{},
	}
	calib0 := calibUS()
	if *traced == 1 {
		b.tr = newTracer()
		err = w.trace(b)
	} else {
		err = w.measure(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	calib := (calib0 + calibUS()) / 2
	if *traced == 1 {
		b.put("host.calib_us", calib, "us")
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", w.name+"-"+strconv.FormatUint(*seed, 10)+".json")
		}
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
			return 1
		}
	} else {
		rss, err := maxRSSMB()
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		b.put("max_rss_mb", rss, "MB")
	}
	c := &b.check
	fmt.Fprintf(stderr, "e2ebench: %s seed %d trace %d: digest %s (recorded %q), %d/%d operations failed, host.calib_us %.0f, %d goroutine workers\n",
		w.name, *seed, *traced, c.digest, c.want, c.failed, c.attempted, calib, runtime.GOMAXPROCS(0))
	for _, n := range c.notes {
		fmt.Fprintln(stderr, "e2ebench: failure:", n)
	}
	res := result{Correct: c.attempted > 0 && c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: b.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench carries one run's settings and collects its results.
type bench struct {
	seed     uint64
	deadline time.Time // the end of the measuring time, counted from the start of the run
	stderr   io.Writer
	tr       *tracer // nil in the untraced run
	check    checker
	metrics  map[string]metric
	setups   []float64 // seconds of each timed set-up
}

// fits reports whether a round of length d, started now, ends before the
// deadline. Measuring loops pass their last round's length, so a run
// ends inside its measuring time instead of up to a round past it.
func (b *bench) fits(d time.Duration) bool { return time.Now().Add(d).Before(b.deadline) }

func (b *bench) put(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// logf prints a diagnostic line to standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stderr, "e2ebench: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker verifies every pass of a workload. A pass yields its outputs
// as groups, one per operation: a Table III (pattern, seed) improvement,
// a matrix row, a city replay. An operation fails when its pass returned
// an error (a CheckInvariants violation among them), when it differs
// from the same operation in the run's first pass, or when the pass's
// digest differs from the one recorded for this seed.
type checker struct {
	want      string // recorded digest for the seed, "" if none
	digest    string // the first pass's digest
	first     [][]float64
	attempted int
	failed    int
	notes     []string
}

// pass checks one pass of ops operations.
func (c *checker) pass(ops int, groups [][]float64, err error) {
	c.attempted += ops
	if err == nil && len(groups) != ops {
		err = fmt.Errorf("pass produced %d results, want %d", len(groups), ops)
	}
	if err != nil {
		c.failed += ops
		c.note(err.Error())
		return
	}
	d := digest(groups)
	if c.first == nil {
		c.first, c.digest = groups, d
	}
	if c.want != "" && d != c.want {
		c.failed += ops
		c.note(fmt.Sprintf("digest %s, recorded %s", d, c.want))
		return
	}
	for i, g := range groups {
		if !sameBits(g, c.first[i]) {
			c.failed++
			c.note(fmt.Sprintf("operation %d: %v, first pass %v", i, g, c.first[i]))
		}
	}
}

func (c *checker) note(s string) {
	if len(c.notes) < 5 {
		c.notes = append(c.notes, s)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// digest hashes the exact bits of every output value, in order.
func digest(groups [][]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range groups {
		for _, x := range g {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordedDigest returns the digest recorded for a workload and seed, or
// "" when the seed has none.
func recordedDigest(workload string, seed uint64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return all[workload][strconv.FormatUint(seed, 10)], nil
}

// passSeeds derives a pass's n simulation seeds from the workload seed.
func passSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*100 + uint64(i)
	}
	return out
}

// timeSetup times one set-up and records it for setup_s, the median of a
// run's set-ups. Runs make their set-ups a few per round over the whole
// measuring time, so a slow phase of the host that covers part of a run
// moves the median less than it would move set-ups made back to back.
// The set-up starts from a freshly collected heap and runs with the
// collector paused: whether its allocations start a cycle depends on the
// heap the run left behind, and a cycle costs as much as a small set-up,
// so with it the samples split into two modes and the median jumps
// between them. The traced run counts the cycles set-up starts
// (runtime.setup_gc_cycles). The heap is collected again afterwards, so
// the garbage of a discarded set-up is not collected in a timed pass.
func (b *bench) timeSetup(build func() error) error {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	t0 := time.Now()
	err := build()
	b.setups = append(b.setups, time.Since(t0).Seconds())
	debug.SetGCPercent(gc)
	runtime.GC()
	return err
}
