// Package fault is the fault-injection and device-health subsystem of the
// QTLS reproduction. The paper's offload contract admits exactly one
// failure mode — ring-full submit rejection (§3.2) — but a production
// offload stack must survive the rest of a sick accelerator's repertoire:
// stalled engines, dropped or corrupted responses, latency spikes and
// whole-endpoint resets.
//
// The Injector is a composable, deterministic (seedable splitmix64 RNG,
// no wall-clock dependence, so decisions are reproducible and compatible
// with the discrete-event model's determinism contract) source of fault
// decisions the simulated QAT device consults at submit and service time.
// A nil *Injector is the free default: every decision method on a nil
// receiver returns the zero Outcome. Judging the health those faults
// damage — per-instance circuits, device quarantine — is qat.Lifecycle's
// job.
//
// Fault scenarios are written in one language (ParseSpec), which backs
// the -fault flags of cmd/qtlsserver, cmd/qatinfo and examples/httpsserver:
// a statement is an injector rule, optionally aimed at one device and
// optionally timed ("t=5s dev1 stall 10s"). The timed statements are a
// schedule with no clock in it (Spec.Due); Spec.Apply is the thin
// wall-clock driver that replays them against live injectors.
package fault

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Stall: the engine never produces a response and the request's ring
	// slot stays occupied (a hung computation engine). The submitter's
	// only defense is a deadline.
	Stall Kind = iota
	// Drop: the engine consumes the request (the ring slot is freed) but
	// the response is lost on the way back.
	Drop
	// Corrupt: the response arrives carrying wrong bytes.
	Corrupt
	// Latency: the response is delayed by an extra service latency.
	Latency
	// RingFull: the submission is rejected as if the request ring were
	// full (a transient ring-full storm).
	RingFull
	// Reset: the whole endpoint resets; requests in flight on it fail
	// with a reset error.
	Reset
	// ResetStorm is not an injector rule but a timed burst of whole-device
	// resets (Statement.Count of them, Statement.Gap apart); it is only
	// valid in a statement with t=.
	ResetStorm

	numKinds = ResetStorm // the injector's kinds
)

// kindNames are the kinds' names in the fault language.
var kindNames = [...]string{"stall", "drop", "corrupt", "latency", "ringfull", "reset", "reset-storm"}

// String returns the kind's name in the fault language.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// kindByName is the inverse of Kind.String for ParseSpec.
func kindByName(name string) (Kind, bool) {
	i := slices.Index(kindNames[:], name)
	return Kind(i), i >= 0
}

// AnyEndpoint and AnyOp are wildcard selectors for Rule.
const (
	AnyEndpoint = -1
	AnyOp       = -1
)

// opNames mirrors qat.OpType's ordinal names without importing qat (the
// dependency points the other way: qat consults fault).
var opNames = []string{"rsa", "ecdsa", "ecdh", "prf", "cipher"}

// Rule is one composable fault source. A rule observes every opportunity
// (submission or service event) matching its Endpoint/Op selectors and
// fires with probability P, skipping the first After opportunities and
// firing at most Limit times (0 = unlimited).
type Rule struct {
	// Kind is the fault class this rule injects.
	Kind Kind
	// Endpoint selects a device endpoint (AnyEndpoint matches all).
	Endpoint int
	// Op selects an operation type by qat.OpType ordinal (AnyOp matches
	// all).
	Op int
	// P is the per-opportunity injection probability in [0, 1].
	P float64
	// Latency is the added service delay for Kind == Latency.
	Latency time.Duration
	// After skips the rule's first After matching opportunities.
	After int
	// Limit caps the number of injections (0 = unlimited).
	Limit int

	seen  int // matching opportunities observed
	fired int // injections performed
}

// Outcome is the set of faults injected at one decision point. The zero
// value means "no fault".
type Outcome struct {
	// RingFull rejects the submission with a ring-full status
	// (submit-time only).
	RingFull bool
	// Reset resets the whole endpoint (submit-time only).
	Reset bool
	// Stall suppresses the response forever and leaks the ring slot
	// (service-time only).
	Stall bool
	// Drop suppresses the response but frees the ring slot
	// (service-time only).
	Drop bool
	// Corrupt delivers wrong bytes in the response (service-time only).
	Corrupt bool
	// ExtraLatency delays the response (service-time only).
	ExtraLatency time.Duration
}

// EventSink receives one call per injected fault with the fault kind and
// the endpoint/op it hit. It is invoked while the injector's lock is
// held, so the sink must be fast and must not call back into the
// injector (the flight-recorder journal qualifies: one seqlock write).
type EventSink func(k Kind, endpoint, op int)

// Injector decides, deterministically, which submissions and services the
// device should sabotage. All methods are safe for concurrent use, and all
// methods on a nil *Injector report no faults — nil is the free default.
type Injector struct {
	mu       sync.Mutex
	rng      uint64 // splitmix64 state
	rules    []*Rule
	injected [numKinds]int64
	total    int64
	events   EventSink
}

// NewInjector builds an injector with a deterministic RNG seed and a rule
// set. Rules are evaluated in order; the first firing rule of each
// decision point wins (faults of different kinds at the same point
// compose only through ExtraLatency, which stacks with Corrupt).
func NewInjector(seed int64, rules ...Rule) *Injector {
	inj := &Injector{rng: uint64(seed) ^ 0x9e3779b97f4a7c15}
	for i := range rules {
		r := rules[i]
		inj.rules = append(inj.rules, &r)
	}
	return inj
}

// SetEventSink mirrors every injection (with kind/endpoint/op detail)
// into fn — typically the flight recorder's journal. Pass nil to detach.
func (inj *Injector) SetEventSink(fn EventSink) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	inj.events = fn
	inj.mu.Unlock()
}

// splitmix64 advances the RNG; returns a uniform uint64.
func (inj *Injector) next() uint64 {
	inj.rng += 0x9e3779b97f4a7c15
	z := inj.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns true with probability p.
func (inj *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		inj.next() // keep the stream position deterministic either way
		return true
	}
	return float64(inj.next()>>11)/(1<<53) < p
}

// fire evaluates one rule at one opportunity.
func (inj *Injector) fire(r *Rule) bool {
	r.seen++
	if r.seen <= r.After || r.Limit > 0 && r.fired >= r.Limit || !inj.roll(r.P) {
		return false
	}
	r.fired++
	inj.injected[r.Kind]++
	inj.total++
	return true
}

func ruleMatches(r *Rule, endpoint, op int) bool {
	return (r.Endpoint == AnyEndpoint || r.Endpoint == endpoint) && (r.Op == AnyOp || r.Op == op)
}

// AtSubmit is consulted once per submission attempt. Only RingFull and
// Reset rules apply at this point.
func (inj *Injector) AtSubmit(endpoint, op int) Outcome { return inj.decide(endpoint, op, true) }

// AtService is consulted once per request as an engine services it. Only
// Stall, Drop, Corrupt and Latency rules apply at this point.
func (inj *Injector) AtService(endpoint, op int) Outcome { return inj.decide(endpoint, op, false) }

// decide evaluates every rule of one phase (submit or service) at one
// opportunity.
func (inj *Injector) decide(endpoint, op int, submit bool) Outcome {
	if inj == nil {
		return Outcome{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out Outcome
	for _, r := range inj.rules {
		if (r.Kind == RingFull || r.Kind == Reset) != submit || !ruleMatches(r, endpoint, op) || !inj.fire(r) {
			continue
		}
		if inj.events != nil {
			inj.events(r.Kind, endpoint, op)
		}
		switch r.Kind {
		case RingFull:
			out.RingFull = true
		case Reset:
			out.Reset = true
		case Stall:
			out.Stall = true
		case Drop:
			out.Drop = true
		case Corrupt:
			out.Corrupt = true
		case Latency:
			out.ExtraLatency += r.Latency
		}
	}
	return out
}

// Injected returns the number of injections of one kind so far.
func (inj *Injector) Injected(k Kind) int64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.injected[k]
}

// TotalInjected returns the total number of injections so far.
func (inj *Injector) TotalInjected() int64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.total
}

// AddRule installs one rule at runtime and returns a handle for
// RemoveRule: Spec.Apply opens a timed statement's window with it.
func (inj *Injector) AddRule(r Rule) *Rule {
	if inj == nil {
		return nil
	}
	h := &r
	inj.mu.Lock()
	inj.rules = append(inj.rules, h)
	inj.mu.Unlock()
	return h
}

// RemoveRule removes a rule previously returned by AddRule (matched by
// identity). Unknown or nil handles are ignored.
func (inj *Injector) RemoveRule(h *Rule) {
	if inj == nil || h == nil {
		return
	}
	inj.mu.Lock()
	inj.rules = slices.DeleteFunc(inj.rules, func(r *Rule) bool { return r == h })
	inj.mu.Unlock()
}

// String summarizes the injector for logs: its rules, as statements.
func (inj *Injector) String() string {
	if inj == nil {
		return "fault: none"
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	parts := make([]string, len(inj.rules))
	for i, r := range inj.rules {
		parts[i] = Statement{Rule: *r, Dev: AnyDevice}.String()
	}
	return "fault: " + strings.Join(parts, "; ")
}
