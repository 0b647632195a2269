package signal

import (
	"fmt"
	"strings"
)

// Batch is the engine-owned structure-of-arrays view of every junction's
// control state a BatchController decides over in one call: the row
// slab and the static link table covering all junctions back-to-back,
// per-junction phase state, and the change set of the current decision
// round. The rows are the engine's own (the truth rows, or a sensed
// engine's observed pairs) and the table is built once (DESIGN.md §6,
// §11), so handing them to a batched controller costs nothing — no
// per-junction copying, no pointer chasing through junction structs.
//
// Junction j owns Links[JuncOff[j]:JuncOff[j+1]]; link li of junction j
// therefore has the dense global index JuncOff[j]+li. A BatchController
// reads Rows/Links/Current/Quiet and writes Decided; everything else is
// input.
type Batch struct {
	// Step is the discrete time index k; Time is t_k in seconds. They
	// apply to every junction of the batch (the engine advances all
	// junctions on one clock).
	Step int
	Time float64
	// Rows is the row slab and Links the link table indexing it, all
	// junctions' links back-to-back in junction order.
	Rows  []Row
	Links []Link
	// JuncOff is the prefix-sum offset table: junction j's links are
	// Links[JuncOff[j]:JuncOff[j+1]]. len(JuncOff) == len(Current)+1.
	JuncOff []int32
	// Current is c(k-1) per junction: the phase applied during the
	// previous mini-slot (Amber at the first step).
	Current []Phase
	// Decided receives c(k) per junction — the controller's output. The
	// engine pre-fills it with Amber each round, so a controller that
	// writes nothing for a junction leaves it inactive rather than
	// replaying a stale decision (a quiet junction's kept phase is
	// written explicitly).
	Decided []Phase
	// Infos holds the static junction descriptions, indexed like
	// Current/Decided. Batched controllers normally capture what they
	// need at construction (BatchFactory.NewBatch receives the same
	// slice); Infos is here so generic adapters need no side channel.
	Infos []JunctionInfo
	// Changed lists the dense global indexes of links whose observation
	// (the columns of its two rows it reads) may have changed since the
	// previous decision round, deduplicated. AllChanged signals that any
	// link may have changed instead (first round after construction or
	// reset, or a step that dirtied a quarter of the roads); when it is
	// set, Changed is meaningless. A controller caching per-link derived
	// state (link gains) may recompute only the changed links — link
	// observations outside the change set are bit-for-bit identical to
	// the previous round — or, on AllChanged, drop its cache and
	// recompute what it next reads (the weighted batch marks its weight
	// windows stale, DESIGN.md §11). Quiet still holds on an AllChanged
	// round: a junction none of whose roads changed may be quiet.
	Changed    []int32
	AllChanged bool
	// Quiet flags, per junction, a quiet fixed point: last round the
	// junction decided its Current phase (a green, not amber, and not
	// under a dark-mode override), and since then neither its link
	// observations nor its Current changed. A controller whose decision
	// is a pure function of those two, and whose keeping a green changes
	// none of its state, may write Decided[j] = Current[j] for a quiet
	// junction instead of re-running its decision tail; it must not if
	// its decision also reads the clock (DESIGN.md §11, "Quiet
	// junctions"). Nil means no junction is quiet.
	Quiet []bool
}

// IsQuiet reports whether junction j is flagged quiet this round; a
// batch without Quiet flags none.
func (b *Batch) IsQuiet(j int) bool { return b.Quiet != nil && b.Quiet[j] }

// JunctionLinks returns junction j's window of the link table.
func (b *Batch) JunctionLinks(j int) []Link {
	return b.Links[b.JuncOff[j]:b.JuncOff[j+1]]
}

// View fills dst with junction j's per-junction observation, aliasing
// the batch's rows and link table. It is the bridge between the batched
// and per-junction controller contracts: a Decide call on the filled
// observation sees exactly what the batch holds.
func (b *Batch) View(j int, dst *Obs) {
	dst.Step = b.Step
	dst.Time = b.Time
	dst.Links = b.JunctionLinks(j)
	dst.Rows = b.Rows
	dst.Current = b.Current[j]
}

// BatchController decides the control phases of every junction of a
// network in one call. It is the batched counterpart of Controller: the
// engine's control substep hands it the Batch once per mini-slot instead
// of making one virtual Decide call per junction, which lets
// implementations sweep the dense link table (and cache derived state
// across rounds via the change set) with zero allocations.
//
// Implementations must be deterministic functions of the observation
// history, like per-junction controllers, and must decide each junction
// independently of the others' Decided entries — the contract that keeps
// batched and per-junction dispatch bit-for-bit interchangeable.
type BatchController interface {
	// Name identifies the control algorithm (e.g. "UTIL-BP").
	Name() string
	// DecideAll writes c(k) for every junction into b.Decided.
	DecideAll(b *Batch)
}

// BatchFactory is implemented by controller factories that can build one
// batched controller driving every junction of a network, in addition to
// per-junction controllers. The engine's control substep prefers it
// (see ControlMode); factories without it keep working through the
// per-junction path or the Batched adapter.
type BatchFactory interface {
	Factory
	// NewBatch returns a fresh batched controller for the given
	// junctions, in batch junction order. Implementations must decide
	// exactly like a per-junction controller built by New for each info.
	NewBatch(infos []JunctionInfo) (BatchController, error)
}

// Batched adapts per-junction controllers (one per junction, in batch
// junction order) to the BatchController interface: DecideAll loops the
// junctions, fills a scratch per-junction observation view and calls
// each controller's Decide. It allocates nothing per round, so any
// existing Controller runs on the batched control plane unchanged —
// the fallback the engine uses in ControlBatched mode when the factory
// implements no BatchFactory. Controllers must not retain the *Obs
// passed to Decide (the view is reused across junctions), which the
// Controller contract already requires.
func Batched(ctrls ...Controller) BatchController {
	return &batchedAdapter{ctrls: ctrls}
}

// batchedAdapter is the Batched implementation.
type batchedAdapter struct {
	ctrls []Controller
	obs   Obs // scratch per-junction view, reused across junctions
}

// Name implements BatchController, labeling the adapter after the
// controllers it wraps.
func (a *batchedAdapter) Name() string {
	if len(a.ctrls) == 0 {
		return "batched()"
	}
	return "batched(" + a.ctrls[0].Name() + ")"
}

// DecideAll implements BatchController. It ignores Quiet: the adapted
// controllers may run on clocks (fixed slots, gap-out timers), so every
// junction decides every round.
func (a *batchedAdapter) DecideAll(b *Batch) {
	for j := range a.ctrls {
		b.View(j, &a.obs)
		b.Decided[j] = a.ctrls[j].Decide(&a.obs)
	}
}

// ControlMode selects how the engine's control substep dispatches to the
// configured controller factory (DESIGN.md §11). The zero value is
// ControlAuto.
type ControlMode int

// The dispatch modes: ControlAuto uses the batched control plane
// whenever the factory implements BatchFactory and falls back to the
// per-junction Decide loop otherwise; ControlPerJunction forces the
// per-junction loop even for batch-capable factories (the reference
// path equivalence tests pin the batched path against);
// ControlBatched forces batched dispatch, wrapping per-junction
// controllers with the Batched adapter when the factory implements no
// BatchFactory.
const (
	ControlAuto ControlMode = iota
	ControlPerJunction
	ControlBatched
)

// String renders the mode in the CLI syntax accepted by
// ParseControlMode.
func (m ControlMode) String() string {
	switch m {
	case ControlAuto:
		return "auto"
	case ControlPerJunction:
		return "per-junction"
	case ControlBatched:
		return "batched"
	}
	return fmt.Sprintf("control(%d)", int(m))
}

// ParseControlMode parses the CLI controller-mode syntax: "auto",
// "per-junction" (alias "perjunction") or "batched".
func ParseControlMode(arg string) (ControlMode, error) {
	switch strings.ToLower(strings.TrimSpace(arg)) {
	case "auto", "":
		return ControlAuto, nil
	case "per-junction", "perjunction":
		return ControlPerJunction, nil
	case "batched":
		return ControlBatched, nil
	}
	return ControlAuto, fmt.Errorf("signal: unknown control mode %q (want auto, per-junction or batched)", arg)
}
