package sensing

import "utilbp/internal/signal"

// OutageMode selects what a dead detector reports during an outage
// window.
type OutageMode int

const (
	// OutageBlank zeroes the dynamic observation fields for the window:
	// the detector feed is gone and the controller sees empty links.
	OutageBlank OutageMode = iota
	// OutageFreeze holds the last pre-outage reading for the window: the
	// detector stopped updating but its final report is still latched.
	OutageFreeze
)

// String renders the mode in the event-spec syntax ("blank"/"freeze").
func (m OutageMode) String() string {
	if m == OutageFreeze {
		return "freeze"
	}
	return "blank"
}

// OutageWindow is one sensing blackout: during mini-slots
// [StartStep, EndStep) the links selected by Links (indexed by the
// engine's dense global link index) stop reporting, per Mode.
type OutageWindow struct {
	StartStep, EndStep int
	Mode               OutageMode
	// Links marks the affected links in the engine's dense global link
	// index space. Indexes beyond its length are unaffected.
	Links []bool
}

// covers reports whether the window suppresses the link at the step.
func (w *OutageWindow) covers(link, step int) bool {
	return step >= w.StartStep && step < w.EndStep &&
		link < len(w.Links) && w.Links[link]
}

// outageSensor decorates an inner sensor with scheduled blackout
// windows. It draws no randomness of its own — all stochastic behavior
// stays on the inner sensor's dedicated sensing RNG stream — so wrapping
// never perturbs the readings outside the windows. Its only state is
// the scratch list of links it forwards, sized at Prepare.
type outageSensor struct {
	inner   Sensor
	windows []OutageWindow
	pass    []int32
}

// Outage wraps a sensor so the configured windows blank or freeze their
// links. The inner sensor must be non-nil; callers modeling an outage
// over perfect observation wrap Perfect{} (the engine's sensor-free fast
// path cannot express an outage, since nothing intercepts the truth).
func Outage(inner Sensor, windows []OutageWindow) Sensor {
	return &outageSensor{inner: inner, windows: windows}
}

// Name implements Sensor.
func (o *outageSensor) Name() string { return o.inner.Name() + "+outage" }

// Prepare implements Sensor: it sizes the forwarding list for nlinks
// and forwards to the inner sensor.
func (o *outageSensor) Prepare(nlinks int) {
	if cap(o.pass) < nlinks {
		o.pass = make([]int32, 0, nlinks)
	}
	o.inner.Prepare(nlinks)
}

// Reseed implements Sensor by forwarding to the inner sensor; the
// windows themselves are deterministic schedule state.
func (o *outageSensor) Reseed(seed uint64) { o.inner.Reseed(seed) }

// Sense implements Sensor. A link inside an active window never
// reaches the inner sensor: blank zeroes the dynamic fields, freeze
// leaves the latched observation untouched. Suppressed sensing events
// are dropped entirely — like a real dead detector, the inner model's
// per-link state (count snapshots, report clocks) does not advance and
// resynchronizes from scratch when the feed returns. The other links
// reach the inner sensor in order, in one call.
func (o *outageSensor) Sense(links []int32, truth, obs []signal.LinkObs, step int) {
	pass := o.pass[:0]
	for _, l := range links {
		if w := o.covering(int(l), step); w != nil {
			if w.Mode == OutageBlank {
				b := &obs[l]
				b.Queue = 0
				b.InTransit = 0
				b.ApproachQueue = 0
				b.OutQueue = 0
				b.OutOccupancy = 0
			}
			continue
		}
		pass = append(pass, l)
	}
	o.pass = pass
	o.inner.Sense(pass, truth, obs, step)
}

// covering returns the first window that suppresses the link at the
// step, nil when none does.
func (o *outageSensor) covering(link, step int) *OutageWindow {
	for i := range o.windows {
		if o.windows[i].covers(link, step) {
			return &o.windows[i]
		}
	}
	return nil
}

var _ Sensor = (*outageSensor)(nil)
