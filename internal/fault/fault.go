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
// Fault scenarios are describable as strings ("stall:op=rsa,p=1" …) via
// ParseSpec, which backs the -fault flags of cmd/qtlsserver, cmd/qatinfo
// and examples/httpsserver; Schedule scripts them over time (-chaos).
package fault

import (
	"fmt"
	"sort"
	"strconv"
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

	numKinds = 6
)

// String returns the canonical (ParseSpec) name of the kind.
func (k Kind) String() string {
	switch k {
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Latency:
		return "latency"
	case RingFull:
		return "ringfull"
	case Reset:
		return "reset"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// kindByName is the inverse of Kind.String for ParseSpec.
func kindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
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

func (r Rule) String() string {
	var parts []string
	if r.Endpoint != AnyEndpoint {
		parts = append(parts, fmt.Sprintf("ep=%d", r.Endpoint))
	}
	if r.Op != AnyOp && r.Op >= 0 && r.Op < len(opNames) {
		parts = append(parts, "op="+opNames[r.Op])
	}
	parts = append(parts, fmt.Sprintf("p=%g", r.P))
	if r.Kind == Latency {
		parts = append(parts, "d="+r.Latency.String())
	}
	if r.After > 0 {
		parts = append(parts, fmt.Sprintf("after=%d", r.After))
	}
	if r.Limit > 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", r.Limit))
	}
	return r.Kind.String() + ":" + strings.Join(parts, ",")
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
	if r.seen <= r.After {
		return false
	}
	if r.Limit > 0 && r.fired >= r.Limit {
		return false
	}
	if !inj.roll(r.P) {
		return false
	}
	r.fired++
	inj.injected[r.Kind]++
	inj.total++
	return true
}

func ruleMatches(r *Rule, endpoint, op int) bool {
	if r.Endpoint != AnyEndpoint && r.Endpoint != endpoint {
		return false
	}
	if r.Op != AnyOp && r.Op != op {
		return false
	}
	return true
}

// AtSubmit is consulted once per submission attempt. Only RingFull and
// Reset rules apply at this point.
func (inj *Injector) AtSubmit(endpoint, op int) Outcome {
	if inj == nil {
		return Outcome{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out Outcome
	for _, r := range inj.rules {
		if r.Kind != RingFull && r.Kind != Reset {
			continue
		}
		if !ruleMatches(r, endpoint, op) {
			continue
		}
		if !inj.fire(r) {
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
		}
	}
	return out
}

// AtService is consulted once per request as an engine services it. Only
// Stall, Drop, Corrupt and Latency rules apply at this point.
func (inj *Injector) AtService(endpoint, op int) Outcome {
	if inj == nil {
		return Outcome{}
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out Outcome
	for _, r := range inj.rules {
		switch r.Kind {
		case Stall, Drop, Corrupt, Latency:
		default:
			continue
		}
		if !ruleMatches(r, endpoint, op) {
			continue
		}
		if !inj.fire(r) {
			continue
		}
		if inj.events != nil {
			inj.events(r.Kind, endpoint, op)
		}
		switch r.Kind {
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
// RemoveRule. This is the chaos-schedule primitive: a Schedule applies a
// fault window by adding a rule at its start time and removing it when
// the window closes.
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
	for i, r := range inj.rules {
		if r == h {
			inj.rules = append(inj.rules[:i], inj.rules[i+1:]...)
			break
		}
	}
	inj.mu.Unlock()
}

// Rules returns the injector's rule list (copies, for display).
func (inj *Injector) Rules() []Rule {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]Rule, len(inj.rules))
	for i, r := range inj.rules {
		out[i] = *r
	}
	return out
}

// String summarizes the injector for logs.
func (inj *Injector) String() string {
	if inj == nil {
		return "fault: none"
	}
	rules := inj.Rules()
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = r.String()
	}
	return "fault: " + strings.Join(parts, " ")
}

// ParseSpec parses a fault-scenario string into an Injector. The grammar
// is a space- or semicolon-separated list of rules,
//
//	kind[:key=value[,key=value...]]
//
// with kinds stall, drop, corrupt, latency, ringfull, reset and keys
//
//	p=<probability 0..1>     (default 1)
//	ep=<endpoint index ≥ 0>  (default: omitted, any endpoint)
//	op=<rsa|ecdsa|ecdh|prf|cipher> (default any)
//	d=<duration>             (latency only, e.g. d=2ms)
//	after=<n ≥ 0>            (skip the first n opportunities)
//	limit=<n ≥ 0>            (fire at most n times; 0 = unlimited)
//
// Examples:
//
//	stall:ep=0,op=rsa,p=1            # endpoint 0 never answers RSA
//	latency:d=5ms,p=0.2              # 20% of responses 5 ms late
//	ringfull:p=0.5,limit=100         # transient submit-rejection storm
//	reset:after=1000,limit=1         # one endpoint reset after 1000 ops
//
// An empty spec returns (nil, nil): the free no-fault default. Every rule
// the grammar accepts renders back (Rule.String) to itself, so an option
// that String would not print — d= on a kind other than latency, a
// negative count or endpoint — is refused, naming the option.
func ParseSpec(spec string, seed int64) (*Injector, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool {
		return r == ' ' || r == ';' || r == '\t' || r == '\n'
	})
	if len(fields) == 0 {
		return nil, nil
	}
	var rules []Rule
	for _, f := range fields {
		name, args, _ := strings.Cut(f, ":")
		k, ok := kindByName(strings.ToLower(strings.TrimSpace(name)))
		if !ok {
			return nil, fmt.Errorf("fault: unknown kind %q (want one of %s)", name, kindList())
		}
		r := Rule{Kind: k, Endpoint: AnyEndpoint, Op: AnyOp, P: 1}
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, found := strings.Cut(kv, "=")
				if !found {
					return nil, fmt.Errorf("fault: malformed option %q in %q", kv, f)
				}
				key = strings.ToLower(strings.TrimSpace(key))
				val = strings.TrimSpace(val)
				var err error
				switch key {
				case "p":
					r.P, err = strconv.ParseFloat(val, 64)
					if err == nil && !(r.P >= 0 && r.P <= 1) { // NaN included
						err = fmt.Errorf("probability out of [0,1]")
					}
				case "ep":
					r.Endpoint, err = nonNegative(val)
				case "op":
					r.Op = -2
					for i, n := range opNames {
						if n == strings.ToLower(val) {
							r.Op = i
						}
					}
					if r.Op == -2 {
						err = fmt.Errorf("unknown op %q (want %s)", val, strings.Join(opNames, "|"))
					}
				case "d":
					if r.Kind != Latency {
						err = fmt.Errorf("only latency rules take a duration")
					} else {
						r.Latency, err = time.ParseDuration(val)
					}
				case "after":
					r.After, err = nonNegative(val)
				case "limit":
					r.Limit, err = nonNegative(val)
				default:
					err = fmt.Errorf("unknown option %q", key)
				}
				if err != nil {
					return nil, fmt.Errorf("fault: %s in %q: %v", key, f, err)
				}
			}
		}
		if r.Kind == Latency && r.Latency <= 0 {
			return nil, fmt.Errorf("fault: latency rule %q needs d=<duration>", f)
		}
		rules = append(rules, r)
	}
	return NewInjector(seed, rules...), nil
}

// nonNegative parses an endpoint index or an opportunity count.
func nonNegative(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative value %d", n)
	}
	return n, err
}

func kindList() string {
	names := make([]string, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		names[k] = k.String()
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
