package fault

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Time-scripted chaos: a Schedule is a parsed list of timed fault events
// ("at t=5s, stall device 1 for 10s; at t=30s, reset-storm device 0")
// that the chaos soak harness and `qtlsserver -chaos` replay against a
// live pool. Rule-window actions (stall, drop, corrupt, latency,
// ringfull) are applied by installing an injector rule at the window
// start and removing it when the window closes; reset-storm fires a
// burst of device resets through a caller-supplied callback (the fault
// package cannot import qat — the dependency points the other way).

// Action enumerates schedule actions.
type Action int

const (
	// ActStall opens a window during which engine responses are
	// suppressed and ring slots leak (drives the wedge watchdog).
	ActStall Action = iota
	// ActDrop opens a window during which responses are lost (ring slots
	// freed) — drives breaker-open density via timeouts.
	ActDrop
	// ActCorrupt opens a window of corrupted responses.
	ActCorrupt
	// ActLatency opens a window of added service latency.
	ActLatency
	// ActRingFull opens a window of submit-time ring-full rejections.
	ActRingFull
	// ActResetStorm fires Count endpoint resets spaced Gap apart (drives
	// the reset-storm detector).
	ActResetStorm
)

// String returns the schedule-grammar name of the action.
func (a Action) String() string {
	switch a {
	case ActStall:
		return "stall"
	case ActDrop:
		return "drop"
	case ActCorrupt:
		return "corrupt"
	case ActLatency:
		return "latency"
	case ActRingFull:
		return "ringfull"
	case ActResetStorm:
		return "reset-storm"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// actionByName is the inverse of Action.String for ParseSchedule.
func actionByName(name string) (Action, bool) {
	for a := ActStall; a <= ActResetStorm; a++ {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// Event is one scheduled fault.
type Event struct {
	// At is the event's offset from schedule start.
	At time.Duration
	// Dev is the target device index.
	Dev int
	// Action is what happens.
	Action Action
	// Dur is the fault window for rule actions (how long the rule stays
	// installed). Zero for reset-storm.
	Dur time.Duration
	// P is the rule's per-opportunity probability (rule actions; default 1).
	P float64
	// Op restricts the rule to one op class (AnyOp by default).
	Op int
	// Latency is the added delay for ActLatency.
	Latency time.Duration
	// Count is the number of resets in a reset-storm (default 3).
	Count int
	// Gap is the spacing between reset-storm resets (default 50ms).
	Gap time.Duration
}

// Rule maps a rule-window event onto the injector rule to install for
// its window. ok is false for reset-storm (not a rule; apply it by
// resetting the device).
func (e Event) Rule() (Rule, bool) {
	r := Rule{Endpoint: AnyEndpoint, Op: e.Op, P: e.P}
	switch e.Action {
	case ActStall:
		r.Kind = Stall
	case ActDrop:
		r.Kind = Drop
	case ActCorrupt:
		r.Kind = Corrupt
	case ActLatency:
		r.Kind = Latency
		r.Latency = e.Latency
	case ActRingFull:
		r.Kind = RingFull
	default:
		return Rule{}, false
	}
	return r, true
}

// String renders the event back in schedule grammar.
func (e Event) String() string {
	s := fmt.Sprintf("t=%v dev%d %v", e.At, e.Dev, e.Action)
	if e.Action == ActResetStorm {
		return s + fmt.Sprintf(" n=%d gap=%v", e.Count, e.Gap)
	}
	s += fmt.Sprintf(" %v", e.Dur)
	if e.Action == ActLatency {
		s += fmt.Sprintf(" d=%v", e.Latency)
	}
	if e.P != 1 {
		s += fmt.Sprintf(" p=%g", e.P)
	}
	if e.Op != AnyOp && e.Op >= 0 && e.Op < len(opNames) {
		s += " op=" + opNames[e.Op]
	}
	return s
}

// Schedule is a parsed chaos script: events sorted by At.
type Schedule struct {
	Events []Event
}

// ParseSchedule parses a chaos script. The grammar is a list of
// statements separated by semicolons or newlines ('#' starts a comment):
//
//	t=<offset> dev<N> <action> [args]
//
// with actions
//
//	stall <window> [p=<prob>] [op=<name>]     # responses suppressed, slots leak
//	drop <window> [p=<prob>] [op=<name>]      # responses lost, slots freed
//	corrupt <window> [p=<prob>] [op=<name>]   # wrong bytes delivered
//	latency <window> d=<delay> [p=] [op=]     # responses delayed
//	ringfull <window> [p=<prob>]              # submits rejected
//	reset-storm [n=<count>] [gap=<dur>]       # burst of endpoint resets
//
// Example:
//
//	t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms
//
// An empty script returns (nil, nil).
func ParseSchedule(s string) (*Schedule, error) {
	var events []Event
	var stmts []string
	// Strip comments per line before splitting on ';', so a comment may
	// itself contain a semicolon.
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		stmts = append(stmts, strings.Split(line, ";")...)
	}
	for _, raw := range stmts {
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("chaos: statement %q: want 't=<offset> dev<N> <action> [args]'", strings.TrimSpace(raw))
		}
		e := Event{P: 1, Op: AnyOp, Count: 3, Gap: 50 * time.Millisecond}

		tok := fields[0]
		if !strings.HasPrefix(tok, "t=") {
			return nil, fmt.Errorf("chaos: statement %q: first token must be t=<offset>", strings.TrimSpace(raw))
		}
		var err error
		if e.At, err = time.ParseDuration(tok[2:]); err != nil {
			return nil, fmt.Errorf("chaos: bad offset %q: %v", tok, err)
		}

		tok = fields[1]
		if !strings.HasPrefix(tok, "dev") {
			return nil, fmt.Errorf("chaos: statement %q: second token must be dev<N>", strings.TrimSpace(raw))
		}
		if e.Dev, err = strconv.Atoi(tok[3:]); err != nil || e.Dev < 0 {
			return nil, fmt.Errorf("chaos: bad device %q", tok)
		}

		act, ok := actionByName(strings.ToLower(fields[2]))
		if !ok {
			return nil, fmt.Errorf("chaos: unknown action %q (want stall|drop|corrupt|latency|ringfull|reset-storm)", fields[2])
		}
		e.Action = act

		for _, arg := range fields[3:] {
			key, val, found := strings.Cut(arg, "=")
			if !found {
				// A bare duration is the rule window.
				if act == ActResetStorm {
					return nil, fmt.Errorf("chaos: reset-storm takes n=/gap= options, not %q", arg)
				}
				if e.Dur, err = time.ParseDuration(arg); err != nil {
					return nil, fmt.Errorf("chaos: bad window %q: %v", arg, err)
				}
				continue
			}
			switch strings.ToLower(key) {
			case "p":
				e.P, err = strconv.ParseFloat(val, 64)
				if err == nil && !(e.P >= 0 && e.P <= 1) { // NaN included
					err = fmt.Errorf("probability out of [0,1]")
				}
			case "op":
				e.Op = -2
				for i, n := range opNames {
					if n == strings.ToLower(val) {
						e.Op = i
					}
				}
				if e.Op == -2 {
					err = fmt.Errorf("unknown op %q (want %s)", val, strings.Join(opNames, "|"))
				}
			case "d":
				e.Latency, err = time.ParseDuration(val)
			case "n":
				e.Count, err = strconv.Atoi(val)
			case "gap":
				e.Gap, err = time.ParseDuration(val)
			default:
				err = fmt.Errorf("unknown option %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos: %s in %q: %v", key, strings.TrimSpace(raw), err)
			}
		}
		if act != ActResetStorm && e.Dur <= 0 {
			return nil, fmt.Errorf("chaos: %v needs a window duration in %q", act, strings.TrimSpace(raw))
		}
		if act == ActLatency && e.Latency <= 0 {
			return nil, fmt.Errorf("chaos: latency needs d=<delay> in %q", strings.TrimSpace(raw))
		}
		if act == ActResetStorm && e.Count <= 0 {
			return nil, fmt.Errorf("chaos: reset-storm needs n>=1 in %q", strings.TrimSpace(raw))
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return nil, nil
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			return nil, fmt.Errorf("chaos: events must be in time order (%v after %v)", events[i].At, events[i-1].At)
		}
	}
	return &Schedule{Events: events}, nil
}

// Duration returns when the schedule is fully quiet: the latest event
// start plus its window (plus storm tail), the minimum soak length.
func (s *Schedule) Duration() time.Duration {
	if s == nil {
		return 0
	}
	var end time.Duration
	for _, e := range s.Events {
		t := e.At + e.Dur
		if e.Action == ActResetStorm {
			t = e.At + time.Duration(e.Count)*e.Gap
		}
		if t > end {
			end = t
		}
	}
	return end
}

// String renders the schedule back in grammar form.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Run replays the schedule in real time from now: apply is called once
// per event at its At offset. Run blocks until the last event has fired
// (not until its window closes — see Duration) or ctx is cancelled.
// Window bookkeeping is the caller's job; most callers want Apply.
func (s *Schedule) Run(ctx context.Context, apply func(Event)) error {
	if s == nil {
		return nil
	}
	start := time.Now()
	for _, e := range s.Events {
		delay := e.At - time.Since(start)
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		apply(e)
	}
	return nil
}

// Apply replays the schedule against live injectors: rule-window events
// install their rule on the target device's injector at the window start
// and remove it at the window end; reset-storm events call reset(dev)
// Count times, Gap apart. injector maps a device index to its injector
// (chaos setups give each device its own); reset resets a device's
// endpoints (qat.Device.Reset, supplied as a callback). Apply blocks
// until every window has closed and every storm has finished, or ctx is
// cancelled.
func (s *Schedule) Apply(ctx context.Context, injector func(dev int) *Injector, reset func(dev int)) error {
	if s == nil {
		return nil
	}
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	done := make(chan struct{}, len(s.Events))
	pending := 0
	err := s.Run(ctx, func(e Event) {
		if e.Action == ActResetStorm {
			pending++
			go func() {
				defer func() { done <- struct{}{} }()
				for i := 0; i < e.Count; i++ {
					if ctx.Err() != nil {
						return
					}
					reset(e.Dev)
					if i < e.Count-1 {
						t := time.NewTimer(e.Gap)
						select {
						case <-ctx.Done():
							t.Stop()
							return
						case <-t.C:
						}
					}
				}
			}()
			return
		}
		rule, ok := e.Rule()
		if !ok {
			return
		}
		inj := injector(e.Dev)
		if inj == nil {
			return
		}
		h := inj.AddRule(rule)
		pending++
		timers = append(timers, time.AfterFunc(e.Dur, func() {
			inj.RemoveRule(h)
			done <- struct{}{}
		}))
	})
	for i := 0; i < pending; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-done:
		}
	}
	return err
}
