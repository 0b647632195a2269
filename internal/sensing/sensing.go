// Package sensing models the cyber half of the paper's CPS split: the
// detection hardware sitting between the physical queues and the signal
// controllers. The simulation engine maintains exact per-link state (the
// plant); a Sensor maps that ground truth onto the signal.Obs queue
// values a controller actually sees — bit-for-bit for Perfect, through a
// stop-bar count model for LoopDetector, or through per-vehicle
// penetration sampling for ConnectedVehicle. Each sensor folds its raw
// readings into queue estimates (count integration for the detector, an
// exponential filter for probe vehicles), following the estimated-queue
// back-pressure literature (arXiv:2006.15549, arXiv:1401.3357).
//
// Sensors are engine-local and event-driven: the engine marks a link
// dirty whenever the underlying road state changes (spawn, serve,
// stop-line arrival) and, once per mini-slot, hands Sense the list of
// links it refreshed, so a link whose queues did not move keeps its
// previous reading — exactly how count-based roadside detection
// behaves, and what keeps the perfect-observation path cheaper than the
// old full walk (DESIGN.md §10). All sensing randomness draws from a
// dedicated "sensing" stream derived from the run seed
// (rng.New(seed).Split("sensing")), so installing or tuning a sensor
// never perturbs the demand or routing streams, and Engine.Reset replays
// runs bit-for-bit.
package sensing

import (
	"math"
	"strconv"

	"utilbp/internal/rng"
	"utilbp/internal/signal"
)

// Sensor maps the ground-truth state of junction links onto the
// observations their controllers see. Implementations are stateful
// (they hold per-link estimates and their RNG stream) and are NOT safe
// for concurrent use: one sensor serves one running engine at a time.
//
// The engine calls Sense once per mini-slot with the links whose
// underlying road state changed during the previous mini-slot; readings
// for unchanged links persist in the observation. Sensors write only the
// dynamic queue fields of an observation (Queue, InTransit,
// ApproachQueue, OutQueue, OutOccupancy) — the static fields
// (capacities, µ) and the per-movement downstream fields are
// engine-owned.
type Sensor interface {
	// Name identifies the sensor model and every option that changes
	// what it writes (e.g. "cv:0.3", "loop:10,fail=0.3"). The engine's
	// snapshot fingerprint compares it, so two sensors that can write
	// different observations must have different names.
	Name() string
	// Prepare sizes the per-link state for an engine whose junctions
	// expose nlinks links in total (the engine's dense global link
	// index space). The engine calls it at construction and whenever
	// the sensor is installed on a reused engine; it must be callable
	// repeatedly and must not discard state mid-run.
	Prepare(nlinks int)
	// Sense observes one mini-slot's changed links. links holds dense
	// global link indexes, each at most once, in the order the engine
	// refreshed them; for each l in links, truth[l] is the exact state
	// the engine maintains and obs[l] the entry the controller will
	// read. step is the mini-slot index; a link is sensed at most once
	// per step. The result is the same as sensing the links one at a
	// time in list order — no link's reading depends on another's — so
	// implementations are free to batch the work across links.
	Sense(links []int32, truth, obs []signal.LinkObs, step int)
	// Reseed rewinds the sensor to the fresh deterministic state of a
	// run with the given seed: per-link estimates cleared and the RNG
	// rewound to rng.New(seed).Split("sensing"). Engine.Reset forwards
	// its seed here, so replays are bit-for-bit.
	Reseed(seed uint64)
}

// sensingStream derives the dedicated sensing RNG stream for a run
// seed. It is split from the same root as the scenario layer's demand
// and router streams but under its own label, so the three never
// interleave: adding a sensor cannot change the arrivals or routes a
// seed produces.
func sensingStream(seed uint64) *rng.Source {
	return rng.New(seed).Split("sensing")
}

// Perfect is the identity sensor: controllers see the exact queue
// state, reproducing the engine's historical behavior bit-for-bit. It
// exists so sensor sweeps have an explicit zero-error reference; an
// engine configured with no sensor at all takes an even shorter path
// (the observation aliases the truth storage) with identical results.
type Perfect struct{}

// Name implements Sensor.
func (Perfect) Name() string { return "perfect" }

// Prepare implements Sensor; the perfect sensor keeps no state.
func (Perfect) Prepare(int) {}

// Sense implements Sensor by copying the truth verbatim.
func (Perfect) Sense(links []int32, truth, obs []signal.LinkObs, _ int) {
	for _, l := range links {
		obs[l] = truth[l]
	}
}

// Reseed implements Sensor; the perfect sensor draws no randomness.
func (Perfect) Reseed(uint64) {}

// The dynamic queue-state fields a sensor estimates, as indexes into
// the per-link estimate vectors. InTransit is special-cased by the
// stop-bar detector (it cannot see rolling vehicles).
const (
	fQueue = iota
	fInTransit
	fApproach
	fOutQueue
	fOutOcc
	numFields
)

// truthFields gathers the dynamic fields of a link observation into a
// vector so sensors can apply one model uniformly per field, widened so
// sums and deltas of them cannot wrap.
func truthFields(o *signal.LinkObs) [numFields]int {
	return [numFields]int{int(o.Queue), int(o.InTransit), int(o.ApproachQueue), int(o.OutQueue), int(o.OutOccupancy)}
}

// writeFields stores rounded estimates, saturated to [0, MaxInt32],
// into the dynamic fields of a link observation.
func writeFields(o *signal.LinkObs, est *[numFields]float64) {
	o.Queue = roundCount(est[fQueue])
	o.InTransit = roundCount(est[fInTransit])
	o.ApproachQueue = roundCount(est[fApproach])
	o.OutQueue = roundCount(est[fOutQueue])
	o.OutOccupancy = roundCount(est[fOutOcc])
}

// roundCount rounds an estimate to a vehicle count, saturated to
// [0, MaxInt32]. A NaN estimate reads 0: the comparison is written
// inverted so NaN takes the zero branch instead of an undefined
// conversion.
func roundCount(v float64) int32 {
	if !(v > 0) {
		return 0
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v + 0.5)
}

// LoopDetectorOptions configures the stop-bar detector model.
type LoopDetectorOptions struct {
	// Saturation is the largest count the detector zone can register
	// per field; queues beyond it saturate the reading. Zero applies
	// DefaultSaturation; negative disables saturation.
	Saturation int
	// FailProb is the probability that one sensing event is missed
	// entirely (a detection failure): the crossing counts of that event
	// are lost and the estimate drifts until the next positive
	// empty-queue detection resynchronizes it.
	FailProb float64
}

// DefaultSaturation is the default detector-zone capacity: half the
// paper grid's road capacity W = 120, a zone covering roughly half the
// approach.
const DefaultSaturation = 60

// LoopDetector models stop-bar loop detection: it observes the flow
// across the detector (the count delta between sensing events),
// integrates it into a running count bounded by the detector-zone
// capacity, and occasionally misses an event entirely. Vehicles still
// rolling toward the stop line are invisible to it, so InTransit reads
// zero. Construct with NewLoopDetector.
type LoopDetector struct {
	opts LoopDetectorOptions
	// max bounds the integrated count: the saturation, or 0 (unbounded)
	// when saturation is disabled.
	max   float64
	src   *rng.Source
	links []loopLink
	n     int
}

// loopLink is the per-link detector state: the running estimates and
// the last truth snapshot the next event's deltas are counted from.
type loopLink struct {
	est  [numFields]float64
	last [numFields]int32
}

// NewLoopDetector builds a stop-bar detector. It starts seeded for run
// seed 0; the engine (or scenario layer) reseeds it for the actual run.
func NewLoopDetector(opts LoopDetectorOptions) *LoopDetector {
	if opts.Saturation == 0 {
		opts.Saturation = DefaultSaturation
	}
	ld := &LoopDetector{opts: opts, src: sensingStream(0)}
	if opts.Saturation > 0 {
		ld.max = float64(opts.Saturation)
	}
	return ld
}

// Name implements Sensor: "loop", then the saturation when it is not
// DefaultSaturation (":unsaturated" when disabled) and the failure
// probability when it is not zero, each written exactly.
func (ld *LoopDetector) Name() string {
	name := "loop"
	switch {
	case ld.max == 0:
		name += ":unsaturated"
	case ld.max != DefaultSaturation:
		name += ":" + strconv.Itoa(ld.opts.Saturation)
	}
	if ld.opts.FailProb != 0 {
		name += ",fail=" + exact(ld.opts.FailProb)
	}
	return name
}

// exact renders v with the fewest digits that parse back to v.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Prepare implements Sensor.
func (ld *LoopDetector) Prepare(nlinks int) {
	if nlinks > len(ld.links) {
		grown := make([]loopLink, nlinks)
		copy(grown, ld.links)
		ld.links = grown
	}
	ld.n = nlinks
}

// Reseed implements Sensor.
func (ld *LoopDetector) Reseed(seed uint64) {
	ld.src = sensingStream(seed)
	clearLinks := ld.links[:ld.n]
	for i := range clearLinks {
		clearLinks[i] = loopLink{}
	}
}

// Sense implements Sensor. Each sensing event observes the per-field
// count deltas since the previous event; a failed event loses them (the
// estimate drifts) but an observed empty queue resynchronizes to zero.
func (ld *LoopDetector) Sense(links []int32, truth, obs []signal.LinkObs, _ int) {
	for _, l := range links {
		ld.senseLink(&ld.links[l], &truth[l], &obs[l])
	}
}

// senseLink is one link's sensing event: one failure draw, then the
// per-field count integration.
func (ld *LoopDetector) senseLink(st *loopLink, truth, obs *signal.LinkObs) {
	failed := ld.src.Bool(ld.opts.FailProb)
	tf := truthFields(truth)
	for f := range tf {
		delta := tf[f] - int(st.last[f])
		st.last[f] = int32(tf[f])
		if failed || f == fInTransit {
			continue
		}
		st.est[f] = integrateCount(st.est[f], float64(delta), ld.max, tf[f] == 0)
	}
	writeFields(obs, &st.est)
	obs.InTransit = 0 // rolling vehicles never reach the stop-bar loop
}

// ConnectedVehicleOptions configures the connected-vehicle model.
type ConnectedVehicleOptions struct {
	// Rate is the penetration rate p in (0, 1]: each queued vehicle
	// reports with probability p, and the count estimate is the scaled
	// Binomial sample k/p.
	Rate float64
	// NoiseStd is the standard deviation of additive Gaussian noise on
	// the scaled estimate, in vehicles. Zero disables it.
	NoiseStd float64
	// LatencySteps is the report latency: the minimum number of
	// mini-slots between accepted queue reports for one link. Between
	// reports the observation holds its last value. Zero reports on
	// every sensing event.
	LatencySteps int
	// Alpha is the gain of the exponential filter that folds the
	// per-report levels into the reported estimate, in (0, 1]; 1 passes
	// levels through. Zero applies DefaultCVAlpha.
	Alpha float64
}

// DefaultCVAlpha is the default exponential-filter gain for the
// connected-vehicle sensor: half the weight on the newest report.
const DefaultCVAlpha = 0.5

// cvChunk bounds the Bernoulli trials one bulk draw of the
// connected-vehicle kernel covers, and with it the kernel's scratch
// (4 bytes a trial), independently of load. A step of the 8×8 downtown
// grid at 30 % penetration draws 2–4 thousand trials: two chunks.
const cvChunk = 2048

// ConnectedVehicle models probe-vehicle sensing: each queued vehicle is
// a connected vehicle with probability Rate, the scaled sample count
// estimates the queue, additive noise models positioning error, and
// reports are rate-limited by LatencySteps. Construct with
// NewConnectedVehicle.
type ConnectedVehicle struct {
	opts  ConnectedVehicleOptions
	src   *rng.Source
	links []cvLink
	n     int
	// cum is the kernel's prefix-count scratch (senseKernel), reused
	// across steps and Reseed.
	cum [cvChunk + 1]int32
}

// cvLink is the per-link probe state: running estimates and the step of
// the last accepted report (-1 before the first).
type cvLink struct {
	est        [numFields]float64
	lastReport int32
}

// NewConnectedVehicle builds a probe-vehicle sensor. It starts seeded
// for run seed 0; the engine (or scenario layer) reseeds it for the
// actual run. A Rate outside (0, 1] is rejected by Spec.Validate; the
// constructor clamps it defensively.
func NewConnectedVehicle(opts ConnectedVehicleOptions) *ConnectedVehicle {
	if opts.Rate <= 0 || opts.Rate > 1 {
		opts.Rate = 1
	}
	if opts.Alpha == 0 {
		opts.Alpha = DefaultCVAlpha
	}
	return &ConnectedVehicle{opts: opts, src: sensingStream(0)}
}

// Name implements Sensor: "cv:<rate>", then the noise std, the report
// latency and the filter gain wherever they differ from their
// defaults, each written exactly.
func (cv *ConnectedVehicle) Name() string {
	name := "cv:" + exact(cv.opts.Rate)
	if cv.opts.NoiseStd != 0 {
		name += ",noise=" + exact(cv.opts.NoiseStd)
	}
	if cv.opts.LatencySteps != 0 {
		name += ",lat=" + strconv.Itoa(cv.opts.LatencySteps)
	}
	if cv.opts.Alpha != DefaultCVAlpha {
		name += ",alpha=" + exact(cv.opts.Alpha)
	}
	return name
}

// Prepare implements Sensor.
func (cv *ConnectedVehicle) Prepare(nlinks int) {
	if nlinks > len(cv.links) {
		grown := make([]cvLink, nlinks)
		n := copy(grown, cv.links)
		for i := n; i < len(grown); i++ {
			grown[i].lastReport = -1
		}
		cv.links = grown
	}
	cv.n = nlinks
}

// Reseed implements Sensor.
func (cv *ConnectedVehicle) Reseed(seed uint64) {
	cv.src = sensingStream(seed)
	clearLinks := cv.links[:cv.n]
	for i := range clearLinks {
		clearLinks[i] = cvLink{lastReport: -1}
	}
}

// Sense implements Sensor: per field, a Binomial(truth, Rate) sample
// scaled by 1/Rate plus optional Gaussian noise, folded through the
// exponential filter, subject to the per-link report latency. The
// latency rule runs first over the whole list; afterwards a link
// reports this step exactly when its lastReport is step, since a link
// is sensed at most once per step.
func (cv *ConnectedVehicle) Sense(links []int32, truth, obs []signal.LinkObs, step int) {
	now, lat := int32(step), cv.opts.LatencySteps
	for _, l := range links {
		st := &cv.links[l]
		if lat > 0 && st.lastReport >= 0 && step-int(st.lastReport) < lat {
			continue // reports are rate-limited; the observation holds
		}
		st.lastReport = now
	}
	if cv.opts.NoiseStd > 0 || cv.opts.Rate >= 1 {
		for _, l := range links {
			if st := &cv.links[l]; st.lastReport == now {
				cv.report(st, &truth[l], &obs[l])
			}
		}
		return
	}
	cv.senseKernel(links, truth, obs, now)
}

// report is one link's reading, field by field: a Binomial draw, then
// (with noise) a Gaussian one, folded through the filter. With noise the
// two kinds of draw interleave, so this order is the sensor's definition;
// at Rate 1 the Binomial is the exact count without a draw, and a
// counted empty field snaps the estimate to zero.
func (cv *ConnectedVehicle) report(st *cvLink, truth, obs *signal.LinkObs) {
	tf := truthFields(truth)
	for f := range tf {
		seen := cv.src.Binomial(tf[f], cv.opts.Rate)
		level := float64(seen) / cv.opts.Rate
		if cv.opts.NoiseStd > 0 {
			level += cv.src.Norm() * cv.opts.NoiseStd
		}
		if level < 0 {
			level = 0
		}
		empty := tf[f] == 0 && seen == 0 && cv.opts.Rate >= 1
		st.est[f] = expFilter(st.est[f], level, cv.opts.Alpha, empty)
	}
	writeFields(obs, &st.est)
}

// senseKernel is Sense for a noiseless sensor below full penetration,
// the setting of every spec ParseSpec accepts. The reporting links'
// fields are consecutive runs of Bernoulli trials: one bulk draw covers
// a chunk of links, and each field's count is a prefix difference.
// These are the trials report's per-field Binomial calls make, in the
// same order, so the readings and the stream position are the same. A
// link with more trials than the scratch holds draws field by field on
// its own, between the chunks around it.
func (cv *ConnectedVehicle) senseKernel(links []int32, truth, obs []signal.LinkObs, now int32) {
	first, n := 0, 0 // the pending chunk is links[first:k], n trials
	for k, l := range links {
		st := &cv.links[l]
		if st.lastReport != now {
			continue
		}
		d := trials(&truth[l])
		if n+d <= cvChunk {
			n += d
			continue
		}
		cv.drawChunk(links[first:k], n, truth, obs, now)
		first, n = k, d
		if d > cvChunk {
			cv.report(st, &truth[l], &obs[l])
			first, n = k+1, 0
		}
	}
	cv.drawChunk(links[first:], n, truth, obs, now)
}

// drawChunk draws the n trials of the reporting links in chunk in one
// BernoulliPrefix and folds each field's count through the filter.
func (cv *ConnectedVehicle) drawChunk(chunk []int32, n int, truth, obs []signal.LinkObs, now int32) {
	cum := cv.cum[:n+1]
	cv.src.BernoulliPrefix(cum, cv.opts.Rate)
	rate, alpha := cv.opts.Rate, cv.opts.Alpha
	at := 0
	for _, l := range chunk {
		st := &cv.links[l]
		if st.lastReport != now {
			continue
		}
		for f, c := range truthFields(&truth[l]) {
			c = max(c, 0)
			level := float64(cum[at+c]-cum[at]) / rate
			at += c
			st.est[f] = expFilter(st.est[f], level, alpha, false)
		}
		writeFields(&obs[l], &st.est)
	}
}

// trials counts the Bernoulli trials of one link's reading: one per
// vehicle in each field (Binomial draws nothing for a non-positive
// count). The sum is taken in int, since five int32 counts can pass
// int32.
func trials(o *signal.LinkObs) int {
	return max(int(o.Queue), 0) + max(int(o.InTransit), 0) + max(int(o.ApproachQueue), 0) +
		max(int(o.OutQueue), 0) + max(int(o.OutOccupancy), 0)
}

var (
	_ Sensor = Perfect{}
	_ Sensor = (*LoopDetector)(nil)
	_ Sensor = (*ConnectedVehicle)(nil)
)
