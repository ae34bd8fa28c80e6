// Package flight is the always-on black-box recorder and sliding-window
// aggregation layer of the QTLS observability surface. Where
// internal/trace answers "where did the time of one operation go" and
// internal/metrics answers "what happened since the process started",
// flight answers the two questions an incident actually poses: *what is
// the latency distribution right now* (windowed stats, merged from a
// ring of time-bucketed histograms) and *what happened in the seconds
// before things went wrong* (a per-worker journal of structured events,
// dumped as JSON-lines when an anomaly trigger fires).
//
// Design constraints mirror trace's:
//
//   - One switch, opt-out cheap: a nil recorder is off, and then every
//     hot-path call is one branch, no allocations (guarded by a
//     benchmark that CI runs).
//   - Race-detector clean: journals are trace.Ring seqlock rings of
//     atomic.Int64 words; windows are short-critical-section mutexes.
//   - Clock-injected: nothing in the hot path calls time.Now — span-fed
//     observations reuse the span's own timestamps and tests drive the
//     bucket rotation with a synthetic clock.
package flight

import (
	"fmt"

	"qtls/internal/trace"
)

// Kind classifies a journal event.
type Kind uint8

const (
	// KindSlowSpan is a trace span that completed above the recorder's
	// latency floor. Code is the trace.Phase, Op the span's op class,
	// Dur the span duration and Arg the span argument (connection fd,
	// batch size — phase-dependent, as in trace).
	KindSlowSpan Kind = iota
	// KindBreaker is a circuit-breaker state transition. Code is the new
	// state (closed/open/half-open), Dur the previous state and Arg the
	// instance's index in its engine.
	KindBreaker
	// KindFault is one injected fault. Code is the fault class
	// (stall/drop/corrupt/latency/ringfull/reset), Op the targeted op
	// and Arg the endpoint.
	KindFault
	// KindShed is one admission-control rejection. Code is the shed site
	// (accept/keepalive) and Arg the connection fd.
	KindShed
	// KindDeadline is one connection-deadline expiry. Code is the
	// deadline class (handshake/header/keepalive/write) and Arg the fd.
	KindDeadline
	// KindDrain marks graceful-drain progress. Code is start/done and
	// Arg the number of connections still open.
	KindDrain
	// KindFallback is one degradation to the software path. Code says
	// why (timeout/cancel) and Arg the engine instance index.
	KindFallback
	// KindDump marks a dump trigger firing. Code is the trigger reason
	// and Arg the number of events captured.
	KindDump
	// KindPlacement is one placement flip: the engine routed an op to a
	// different device than its predecessor (breaker open, quarantine or
	// rings saturated on the preferred set), or a worker re-homed. Code is
	// the op class (asym/sym), Dur the previous device index and Arg the
	// new one.
	KindPlacement
	// KindLifecycle is one device-lifecycle transition (healthy / suspect
	// / quarantined / probation). Code is the transition reason
	// (breaker-density, reset-storm, wedge, ...), Dur packs the states as
	// from<<8|to (see LifecycleStates) and Arg is the device index.
	KindLifecycle

	numKinds
)

// ControlPlane reports whether the kind records a decision the system
// took (a breaker flip, a drain step, a re-route, a
// device-lifecycle transition, a dump) rather than something that
// happened to one request. Control-plane events are rare and are the
// story of an incident; journals keep them where data-plane volume
// cannot evict them.
func (k Kind) ControlPlane() bool {
	switch k {
	case KindBreaker, KindDrain, KindDump, KindPlacement, KindLifecycle:
		return true
	}
	return false
}

// kindNames indexes the kind names dump output uses by Kind.
var kindNames = [numKinds]string{"slowspan", "breaker", "fault", "shed", "deadline",
	"drain", "fallback", "dump", "placement", "lifecycle"}

// String returns the kind name used in dump output.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Shed sites (KindShed codes).
const (
	ShedAccept uint8 = iota
	ShedKeepalive
)

// Drain marks (KindDrain codes).
const (
	DrainStart uint8 = iota
	DrainDone
)

// Fallback reasons (KindFallback codes).
const (
	FallbackTimeout uint8 = iota
	FallbackCancel
)

// Dump reasons (KindDump codes). DumpReasonCode maps the trigger-reason
// strings used by Recorder.Trigger onto these.
const (
	DumpManual uint8 = iota
	DumpSignal
	DumpBreakerOpen
	DumpSLOP99
	DumpShedRate
)

// dumpReasons indexes dump-reason names by code.
var dumpReasons = [...]string{"manual", "signal", "breaker-open", "slo-p99", "shed-rate"}

// DumpReasonCode returns the KindDump code for a trigger-reason string
// (DumpManual for unknown reasons).
func DumpReasonCode(reason string) uint8 {
	for i, n := range dumpReasons {
		if n == reason {
			return uint8(i)
		}
	}
	return DumpManual
}

// codeNames render the kind-specific meaning of Event.Code. The breaker,
// fault and deadline tables mirror qat.BreakerState, fault.Kind and
// offload.DeadlineClass ordinals without importing those packages (the
// dependencies point the other way: they journal into flight); the engine
// tests pin the qat ones.
var (
	breakerNames  = [...]string{"closed", "open", "half-open"}
	faultNames    = [...]string{"stall", "drop", "corrupt", "latency", "ringfull", "reset"}
	shedNames     = [...]string{"accept", "keepalive"}
	deadlineNames = [...]string{"handshake", "header", "keepalive", "write"}
	drainNames    = [...]string{"start", "done"}
	fallbackNames = [...]string{"timeout", "cancel"}
	// placementNames name the op classes a placement flip carries
	// (PlacementAsym / PlacementSym codes below).
	placementNames = [...]string{"asym", "sym"}
	// lifecycleReasons mirror qat.LifecycleReason ordinals.
	lifecycleReasons = [...]string{"breaker-density", "reset-storm", "wedge",
		"probation", "probe-ok", "probe-fail", "decay", "manual"}
	// lifecycleStates mirror qat.DeviceState ordinals (packed into
	// KindLifecycle's Dur as from<<8|to).
	lifecycleStates = [...]string{"healthy", "suspect", "quarantined", "probation"}
)

// LifecycleStates unpacks a KindLifecycle Dur field (from<<8|to) into
// state names.
func LifecycleStates(dur int64) (from, to string) {
	name := func(s int64) string {
		if s >= 0 && int(s) < len(lifecycleStates) {
			return lifecycleStates[s]
		}
		return fmt.Sprintf("state(%d)", s)
	}
	return name(dur >> 8 & 0xff), name(dur & 0xff)
}

// PackLifecycleStates packs two qat.DeviceState ordinals into the Dur
// encoding LifecycleStates reverses.
func PackLifecycleStates(from, to int64) int64 { return from<<8 | to }

// Op classes of a placement flip (KindPlacement codes).
const (
	PlacementAsym uint8 = iota
	PlacementSym
)

func codeName(k Kind, code uint8) string {
	var tab []string
	switch k {
	case KindSlowSpan:
		return trace.Phase(code).String()
	case KindBreaker:
		tab = breakerNames[:]
	case KindFault:
		tab = faultNames[:]
	case KindShed:
		tab = shedNames[:]
	case KindDeadline:
		tab = deadlineNames[:]
	case KindDrain:
		tab = drainNames[:]
	case KindFallback:
		tab = fallbackNames[:]
	case KindDump:
		tab = dumpReasons[:]
	case KindPlacement:
		tab = placementNames[:]
	case KindLifecycle:
		tab = lifecycleReasons[:]
	}
	if int(code) < len(tab) {
		return tab[code]
	}
	return fmt.Sprintf("code(%d)", int(code))
}

// Event is one decoded journal record. Dur and Arg are kind-dependent;
// see the Kind constants.
type Event struct {
	// Time is the event time, nanoseconds since the Unix epoch. For slow
	// spans it is the span's completion time (start + duration).
	Time int64
	// Kind classifies the event.
	Kind Kind
	// Worker is the journaling worker's id (SystemWorker for events not
	// tied to one worker: fault injections, dump markers).
	Worker uint16
	// Code is the kind-specific detail (phase, breaker state, fault
	// class, shed site, deadline class, drain mark, fallback reason,
	// dump reason).
	Code uint8
	// Op is the crypto op class (trace.OpNone when not applicable).
	Op trace.Op
	// Dur is a duration in nanoseconds where meaningful (slow spans),
	// or a kind-specific extra field (the previous state for breaker
	// events).
	Dur int64
	// Arg is the kind-specific argument (fd, instance, endpoint, bytes,
	// event count).
	Arg int64
}

// MarshalJSON renders the event as one dump line with symbolic names.
func (e Event) MarshalJSON() ([]byte, error) {
	return fmt.Appendf(nil,
		`{"t_ns":%d,"kind":%q,"worker":%d,"code":%q,"op":%q,"dur_ns":%d,"arg":%d}`,
		e.Time, e.Kind, e.Worker, codeName(e.Kind, e.Code), e.Op, e.Dur, e.Arg), nil
}
