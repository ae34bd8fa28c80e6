// Package offload is the shared policy vocabulary of the QTLS offload
// framework. The paper's five evaluated configurations (SW, QAT+S, QAT+A,
// QAT+AH, QTLS — §5.1) are a matrix of two orthogonal policies:
//
//   - how QAT responses are retrieved (PollPolicy: none/inline, a timer
//     polling thread, or the heuristic scheme of §3.3 with its 48/24
//     thresholds and 5 ms failover timer); and
//   - how async events reach the event loop (Notifier: a file descriptor
//     watched by epoll vs the kernel-bypass async queue, §3.4).
//
// Policy is exactly that matrix: name, QAT, async, poll, notify.
// Submission has no policy: every request goes onto a ring as its
// operation pauses (§3.2).
//
// Both the live stack (internal/server, internal/engine) and the
// discrete-event performance model (internal/perf) consume this package:
// server.RunConfig and perf.Config each embed Policy and add only what is
// theirs, so the thresholds, defaults and poll decisions are defined
// exactly once and the two stacks cannot drift.
package offload

import (
	"fmt"
	"time"
)

// The heuristic polling defaults of §3.3/§4.3 and the artifact's SSL
// Engine Framework directives (§A.7). These are the single definition of
// the paper's magic numbers; every other package references them.
const (
	// DefaultAsymThreshold is qat_heuristic_poll_asym_threshold: the
	// efficiency-constraint threshold while asymmetric requests are in
	// flight.
	DefaultAsymThreshold = 48
	// DefaultSymThreshold is qat_heuristic_poll_sym_threshold: the
	// threshold while only symmetric/PRF requests are in flight.
	DefaultSymThreshold = 24
	// DefaultFailoverInterval backs the heuristic scheme up: if no poll
	// happened for this long while requests are in flight, poll once.
	DefaultFailoverInterval = 5 * time.Millisecond
	// DefaultPollInterval is the timer polling period (the QAT Engine's
	// default 10 µs polling thread).
	DefaultPollInterval = 10 * time.Microsecond
)

// PollScheme selects how QAT responses are retrieved (§3.3, §5.6).
type PollScheme int

const (
	// PollNone: no retrieval loop — software crypto (SW) or the inline
	// blocking retrieval of the straight offload mode (QAT+S).
	PollNone PollScheme = iota
	// PollTimer: poll at fixed intervals (the default QAT Engine polling
	// thread).
	PollTimer
	// PollHeuristic: the QTLS heuristic polling scheme driven by in-flight
	// request counts and active-connection counts.
	PollHeuristic
	// PollInterrupt: no polling — each completion raises a kernel
	// interrupt (the alternative §3.3 rejects for its per-event kernel
	// cost; modeled as an ablation by internal/perf only).
	PollInterrupt
)

// String returns the scheme name.
func (p PollScheme) String() string {
	switch p {
	case PollNone:
		return "none"
	case PollTimer:
		return "timer"
	case PollHeuristic:
		return "heuristic"
	case PollInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("PollScheme(%d)", int(p))
	}
}

// NotifyScheme selects how async events reach the event loop (§3.4).
// NewNotifier builds the matching Notifier.
type NotifyScheme int

const (
	// NotifierFD: the response callback writes to a descriptor monitored
	// by epoll — user/kernel switches on every event.
	NotifierFD NotifyScheme = iota
	// NotifierKernelBypass: the response callback pushes the saved async
	// handler onto an application-level async queue drained at the end of
	// the event loop.
	NotifierKernelBypass
)

// String returns the notifier name.
func (n NotifyScheme) String() string {
	switch n {
	case NotifierFD:
		return "fd"
	case NotifierKernelBypass:
		return "kernel-bypass"
	default:
		return fmt.Sprintf("NotifyScheme(%d)", int(n))
	}
}

// NotifySchemeByName maps a flag value ("fd", "kernel-bypass") back to its
// scheme.
func NotifySchemeByName(name string) (NotifyScheme, bool) {
	return byName(name, NotifierFD, NotifierKernelBypass)
}

// byName finds the value among all whose String is name: the inverse the
// flag and conf surfaces need for every enum of this package.
func byName[T fmt.Stringer](name string, all ...T) (T, bool) {
	for _, v := range all {
		if v.String() == name {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Placement selects how work is spread across the devices of a qat.Pool
// (server.RunConfig.Placement; the DES models the paper's single card and
// has no placement). The zero value (PlacementSingle) is the paper's
// single-device setup: everything lands on device 0, which is what the
// five named configurations use.
type Placement int

const (
	// PlacementSingle pins all work to one device (the paper's setup).
	PlacementSingle Placement = iota
	// PlacementConnHash shards whole connections across devices by
	// connection hash — with SO_REUSEPORT accept sharding, each worker's
	// engine is pinned to the device its hash selects.
	PlacementConnHash
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case PlacementSingle:
		return "single"
	case PlacementConnHash:
		return "conn-hash"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// PlacementByName maps a flag value ("single", "conn-hash") back to its
// placement mode.
func PlacementByName(name string) (Placement, bool) {
	return byName(name, PlacementSingle, PlacementConnHash)
}

// PollPolicy is one response-retrieval policy: the scheme plus every
// parameter the schemes read. The zero value resolves to the paper's
// defaults via WithDefaults.
type PollPolicy struct {
	// Scheme selects the retrieval mechanism.
	Scheme PollScheme
	// Interval is the timer polling period (PollTimer; default 10 µs).
	Interval time.Duration
	// AsymThreshold is the heuristic efficiency threshold while
	// asymmetric requests are in flight (default 48).
	AsymThreshold int
	// SymThreshold is the heuristic threshold otherwise (default 24).
	SymThreshold int
	// FailoverInterval is the heuristic failover timer (default 5 ms).
	FailoverInterval time.Duration
}

// WithDefaults resolves unset parameters to the paper's defaults.
func (p PollPolicy) WithDefaults() PollPolicy {
	if p.Interval <= 0 {
		p.Interval = DefaultPollInterval
	}
	if p.AsymThreshold <= 0 {
		p.AsymThreshold = DefaultAsymThreshold
	}
	if p.SymThreshold <= 0 {
		p.SymThreshold = DefaultSymThreshold
	}
	if p.FailoverInterval <= 0 {
		p.FailoverInterval = DefaultFailoverInterval
	}
	return p
}

// Threshold returns the efficiency-constraint threshold in effect:
// AsymThreshold while any asymmetric request is in flight, SymThreshold
// otherwise (§4.3: "48 when asymmetric requests are in flight, 24
// otherwise").
func (p PollPolicy) Threshold(inflightAsym int) int {
	if inflightAsym > 0 {
		return p.AsymThreshold
	}
	return p.SymThreshold
}

// ShouldPoll is the heuristic polling decision (§3.3): poll when the
// efficiency constraint holds (enough responses to coalesce into one
// retrieval) or the timeliness constraint holds (every active connection
// is waiting on the accelerator, so nothing else can make progress).
// It returns false when nothing is in flight or the scheme is not
// heuristic.
func (p PollPolicy) ShouldPoll(inflight, inflightAsym, activeConns int) bool {
	if p.Scheme != PollHeuristic || inflight <= 0 {
		return false
	}
	return inflight >= p.Threshold(inflightAsym) || inflight >= activeConns
}

// FailoverDue reports whether the failover timer demands a poll: requests
// are in flight but no poll has happened for a full interval (§4.3).
func (p PollPolicy) FailoverDue(inflight int, sinceLastPoll time.Duration) bool {
	if p.Scheme != PollHeuristic || inflight <= 0 {
		return false
	}
	return sinceLastPoll >= p.FailoverInterval
}

// The idle decision: what an event loop does at the bottom of an
// iteration that has nothing queued for itself.
const (
	// IdleSpinBudget is how many consecutive empty iterations a loop with
	// requests in flight keeps executing (re-checking its rings, yielding
	// the CPU between checks) before it parks in its event wait. Ops that
	// complete within a few yields never pay a wake-up; long ones (an
	// RSA-2048 sign is ~1.5 ms) stop costing a ring poll per microsecond.
	// Chosen from the measured table in DESIGN.md "Event loop": 0 is
	// markedly worse, 1 to 16 are within a few percent, 4 is the cheapest.
	IdleSpinBudget = 4
	// IdleWait is how long a loop with nothing in flight and no armed
	// deadline blocks before it re-checks its stop and drain flags.
	IdleWait = 50 * time.Millisecond
	// OpDeadlineScan is the period of the op-deadline scan: a loop holding
	// paused offloads with a deadline wakes this often even if the device
	// never responds.
	OpDeadlineScan = time.Millisecond
)

// Idle is the loop state the idle decision reads.
type Idle struct {
	// Inflight is the number of submitted-but-unretrieved requests on the
	// loop's crypto instances.
	Inflight int
	// SinceLastPoll is the time since the last response-retrieval poll —
	// the failover timer's clock.
	SinceLastPoll time.Duration
	// Spins is the number of consecutive iterations that did no work:
	// retrieved no response and ran no connection handler.
	Spins int
	// OpDeadlines reports paused offloads whose deadline the loop's
	// OpDeadlineScan must meet.
	OpDeadlines bool
	// WheelTick is the lifecycle-deadline wheel's tick while any deadline
	// is armed, zero otherwise.
	WheelTick time.Duration
}

// Park is the idle decision (the blocking half of §3.4: between events the
// paper's Nginx sits in epoll_wait, backed by the failover timer). It
// returns park=false when the loop should iterate again without blocking,
// or park=true and the longest it may block — always positive, and never
// past the next thing the loop owes: the failover poll, the op-deadline
// scan, the deadline-wheel tick. While the loop is parked with requests in
// flight a completion wakes it (qat.Instance.ArmWake), so d bounds the cost
// of a lost wake-up, not the retrieval latency.
func (p PollPolicy) Park(s Idle) (d time.Duration, park bool) {
	d = IdleWait
	if s.WheelTick > 0 {
		d = min(d, max(s.WheelTick, time.Millisecond))
	}
	if s.OpDeadlines {
		d = min(d, OpDeadlineScan)
	}
	if s.Inflight <= 0 {
		return d, true
	}
	if p.Scheme == PollTimer {
		// Timer polling wakes at its interval; a sub-millisecond interval
		// degenerates to a busy poll, like the 10 µs polling thread it
		// stands for.
		if p.Interval < time.Millisecond {
			return 0, false
		}
		return min(d, p.Interval), true
	}
	if s.Spins < IdleSpinBudget {
		return 0, false
	}
	untilFailover := p.FailoverInterval - s.SinceLastPoll
	if untilFailover <= 0 {
		return 0, false // the failover poll is due now
	}
	return min(d, untilFailover), true
}

// Policy is one complete offload configuration: whether the accelerator
// is used at all, whether offloads pause asynchronously or block, and the
// sub-policies.
type Policy struct {
	// Name labels the configuration ("SW", "QAT+S", ...).
	Name string
	// UseQAT enables the accelerator.
	UseQAT bool
	// Async enables the asynchronous offload framework; false with UseQAT
	// is the straight (blocking) offload mode.
	Async bool
	// Poll is the response-retrieval policy.
	Poll PollPolicy
	// Notify is the async event notification scheme.
	Notify NotifyScheme
}

// WithDefaults resolves the poll policy's unset parameters.
func (p Policy) WithDefaults() Policy {
	p.Poll = p.Poll.WithDefaults()
	return p
}

// The paper's five configurations (§5.1), built from the composable
// policy values. server.ConfigSW … ConfigQTLS and perf.SW(n) … QTLS(n)
// are literals over these.

// SW is software calculation with AES-NI-class instructions.
func SW() Policy { return Policy{Name: "SW"} }

// QATS is the straight (blocking) offload mode.
func QATS() Policy {
	return Policy{Name: "QAT+S", UseQAT: true, Poll: PollPolicy{Scheme: PollNone}}
}

// QATA is the async framework with timer polling and FD notification.
func QATA() Policy {
	return Policy{Name: "QAT+A", UseQAT: true, Async: true,
		Poll: PollPolicy{Scheme: PollTimer}, Notify: NotifierFD}
}

// QATAH replaces the polling thread with the heuristic scheme.
func QATAH() Policy {
	return Policy{Name: "QAT+AH", UseQAT: true, Async: true,
		Poll: PollPolicy{Scheme: PollHeuristic}, Notify: NotifierFD}
}

// QTLS is the full QTLS: heuristic polling + kernel-bypass notification.
func QTLS() Policy {
	return Policy{Name: "QTLS", UseQAT: true, Async: true,
		Poll: PollPolicy{Scheme: PollHeuristic}, Notify: NotifierKernelBypass}
}

// Configurations lists the five configurations in evaluation order.
func Configurations() []Policy {
	return []Policy{SW(), QATS(), QATA(), QATAH(), QTLS()}
}

// ByName returns the named configuration (resolved to defaults) and
// whether the name is known.
func ByName(name string) (Policy, bool) {
	for _, p := range Configurations() {
		if p.Name == name {
			return p, true
		}
	}
	return Policy{}, false
}
