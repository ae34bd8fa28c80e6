package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// AnyDevice is the wildcard device selector: a statement without dev<N>
// applies to every device.
const AnyDevice = -1

// Statement is one sentence of the fault language: an injector rule, the
// device it targets and, when it has t=, when it opens. An untimed
// statement is installed for the whole run. A timed rule is installed At
// after the schedule starts and removed Window later. A reset-storm
// resets its device Count times, Gap apart, from At.
type Statement struct {
	Rule
	// Dev is the target device's pool index (AnyDevice: every device).
	Dev int
	// At is a timed statement's offset from the schedule's start.
	At time.Duration
	// Window is how long a timed rule stays installed. It is 0 for an
	// untimed statement and for a reset-storm.
	Window time.Duration
	// Count and Gap shape a reset-storm (defaults 3 and 50ms).
	Count int
	Gap   time.Duration
}

// Timed reports whether the statement has t=: a windowed rule or a
// reset-storm.
func (st Statement) Timed() bool { return st.Window > 0 || st.Kind == ResetStorm }

// end is the offset of the statement's last change.
func (st Statement) end() time.Duration {
	if st.Kind == ResetStorm {
		return st.At + time.Duration(st.Count-1)*st.Gap
	}
	return st.At + st.Window
}

// String renders the statement in the fault language; it parses back to
// an equal statement.
func (st Statement) String() string {
	var b strings.Builder
	if st.Timed() {
		fmt.Fprintf(&b, "t=%v ", st.At)
	}
	if st.Dev != AnyDevice {
		fmt.Fprintf(&b, "dev%d ", st.Dev)
	}
	b.WriteString(st.Kind.String())
	if st.Window > 0 {
		fmt.Fprintf(&b, " %v", st.Window)
	}
	if st.Endpoint != AnyEndpoint {
		fmt.Fprintf(&b, " ep=%d", st.Endpoint)
	}
	if st.Op >= 0 && st.Op < len(opNames) {
		b.WriteString(" op=" + opNames[st.Op])
	}
	if st.P != 1 {
		fmt.Fprintf(&b, " p=%g", st.P)
	}
	if st.Kind == Latency {
		fmt.Fprintf(&b, " d=%v", st.Latency)
	}
	if st.After > 0 {
		fmt.Fprintf(&b, " after=%d", st.After)
	}
	if st.Limit > 0 {
		fmt.Fprintf(&b, " limit=%d", st.Limit)
	}
	if st.Kind == ResetStorm {
		fmt.Fprintf(&b, " n=%d gap=%v", st.Count, st.Gap)
	}
	return b.String()
}

// Spec is a parsed fault spec: its statements in source order.
type Spec []Statement

// ParseSpec parses the fault language. A statement is
//
//	[t=<offset>] [dev<N>] <kind> [<window>] [ep=] [op=] [p=] [d=] [after=] [limit=] [n=] [gap=]
//
// Statements are separated by ';', a newline or the start of the next
// statement (a t=, a dev<N> or a kind after a kind); '#' starts a
// comment. The kinds are stall, drop, corrupt, latency, ringfull and reset,
// which are injector rules, and reset-storm. The options are
//
//	ep=<endpoint ≥ 0>               (rules; default any endpoint)
//	op=<rsa|ecdsa|ecdh|prf|cipher>  (rules; default any op)
//	p=<probability 0..1>            (rules; default 1)
//	d=<duration>                    (latency only, required)
//	after=<n ≥ 0>                   (rules: skip the first n opportunities)
//	limit=<n ≥ 0>                   (rules: fire at most n times; 0 = unlimited)
//	n=<count ≥ 1>, gap=<duration ≥ 0>  (reset-storm only; default 3 and 50ms)
//
// A statement without dev<N> applies to every device. A rule without t=
// holds for the whole run and its counts are per device. A rule with t=
// needs a window: it is installed at the offset and removed when the
// window ends. A reset-storm needs t= and resets its device n times, gap
// apart. Timed statements must come in time order. The older form
// kind:key=value,key=value is read as kind key=value key=value. Examples:
//
//	stall ep=0 op=rsa              # endpoint 0 never answers RSA
//	latency d=5ms p=0.2            # 20% of responses 5 ms late
//	reset after=1000 limit=1       # one endpoint reset after 1000 ops
//	t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms
//
// An empty spec returns (nil, nil). Every statement the parser accepts
// renders back (Statement.String) to itself, so an option String would
// not print — d= on a kind other than latency, n= on a rule, p= on a
// reset-storm, a negative count — is refused, naming the option.
func ParseSpec(text string) (Spec, error) {
	var spec Spec
	var last time.Duration // the latest timed statement's offset
	flush := func(toks []string) error {
		if len(toks) == 0 {
			return nil
		}
		st, err := parseStatement(toks)
		if err != nil {
			return err
		}
		if st.Timed() {
			if st.At < last {
				return fmt.Errorf("fault: timed statements must be in time order (%v after %v)", st.At, last)
			}
			last = st.At
		}
		spec = append(spec, st)
		return nil
	}
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, part := range strings.Split(line, ";") {
			var toks []string
			sawKind := false
			for _, tok := range strings.Fields(part) {
				head, _, _ := strings.Cut(tok, ":")
				_, isKind := kindByName(strings.ToLower(head))
				starts := isKind || strings.HasPrefix(tok, "t=") || strings.HasPrefix(tok, "dev")
				if starts && sawKind {
					if err := flush(toks); err != nil {
						return nil, err
					}
					toks, sawKind = nil, false
				}
				toks = append(toks, tok)
				sawKind = sawKind || isKind
			}
			if err := flush(toks); err != nil {
				return nil, err
			}
		}
	}
	return spec, nil
}

// parseStatement parses one statement's tokens.
func parseStatement(toks []string) (Statement, error) {
	raw := strings.Join(toks, " ")
	st := Statement{Rule: Rule{Endpoint: AnyEndpoint, Op: AnyOp, P: 1}, Dev: AnyDevice}
	timed := strings.HasPrefix(toks[0], "t=")
	if timed {
		var err error
		if st.At, err = time.ParseDuration(toks[0][2:]); err != nil || st.At < 0 {
			return st, fmt.Errorf("fault: bad offset %q in %q", toks[0], raw)
		}
		toks = toks[1:]
	}
	if len(toks) > 0 && strings.HasPrefix(toks[0], "dev") {
		n, err := strconv.Atoi(toks[0][3:])
		if err != nil || n < 0 {
			return st, fmt.Errorf("fault: bad device %q in %q", toks[0], raw)
		}
		st.Dev = n
		toks = toks[1:]
	}
	if len(toks) == 0 {
		return st, fmt.Errorf("fault: statement %q has no kind (want [t=<offset>] [dev<N>] <kind> ...)", raw)
	}
	name, list, _ := strings.Cut(toks[0], ":")
	k, ok := kindByName(strings.ToLower(name))
	if !ok {
		return st, fmt.Errorf("fault: unknown kind %q (want one of %s)", name, strings.Join(kindNames[:], "|"))
	}
	st.Kind = k
	if k == ResetStorm {
		st.Count, st.Gap = 3, 50*time.Millisecond
	}
	var opts []string
	if list != "" {
		opts = strings.Split(list, ",")
	}
	listed := len(opts)
	for i, tok := range append(opts, toks[1:]...) {
		key, val, found := strings.Cut(tok, "=")
		switch {
		case found:
			if err := st.set(strings.ToLower(key), val); err != nil {
				return st, fmt.Errorf("fault: %s in %q: %v", key, raw, err)
			}
		case i < listed:
			return st, fmt.Errorf("fault: malformed option %q in %q", tok, raw)
		case k == ResetStorm:
			return st, fmt.Errorf("fault: reset-storm takes n=/gap= options, not a window %q in %q", tok, raw)
		default:
			w, err := time.ParseDuration(tok)
			if err != nil || w <= 0 {
				return st, fmt.Errorf("fault: bad window %q in %q", tok, raw)
			}
			st.Window = w
		}
	}
	switch {
	case k == Latency && st.Latency <= 0:
		return st, fmt.Errorf("fault: latency needs d=<delay> in %q", raw)
	case k == ResetStorm && !timed:
		return st, fmt.Errorf("fault: reset-storm needs t=<offset> in %q", raw)
	case st.Window > 0 && !timed:
		return st, fmt.Errorf("fault: window %v needs t=<offset> in %q", st.Window, raw)
	case timed && !st.Timed():
		return st, fmt.Errorf("fault: %v needs a window duration in %q", k, raw)
	case st.Window > math.MaxInt64-st.At ||
		st.Gap > 0 && int64(st.Count-1) > (math.MaxInt64-int64(st.At))/int64(st.Gap):
		return st, fmt.Errorf("fault: %q ends past the longest duration", raw)
	}
	return st, nil
}

// set applies one key=value option.
func (st *Statement) set(key, val string) (err error) {
	storm := st.Kind == ResetStorm
	switch key {
	case "p", "ep", "op", "after", "limit":
		if storm {
			return errors.New("reset-storm resets whole devices and takes only n= and gap=")
		}
	case "n", "gap":
		if !storm {
			return errors.New("only reset-storm takes n= and gap=")
		}
	}
	switch key {
	case "p":
		st.P, err = strconv.ParseFloat(val, 64)
		if err == nil && !(st.P >= 0 && st.P <= 1) { // NaN included
			err = errors.New("probability out of [0,1]")
		}
	case "ep":
		st.Endpoint, err = nonNegative(val)
	case "op":
		st.Op = -2
		for i, n := range opNames {
			if n == strings.ToLower(val) {
				st.Op = i
			}
		}
		if st.Op == -2 {
			err = fmt.Errorf("unknown op %q (want %s)", val, strings.Join(opNames, "|"))
		}
	case "d":
		if st.Kind != Latency {
			return errors.New("only latency rules take a duration")
		}
		st.Latency, err = time.ParseDuration(val)
	case "after":
		st.After, err = nonNegative(val)
	case "limit":
		st.Limit, err = nonNegative(val)
	case "n":
		st.Count, err = strconv.Atoi(val)
		if err == nil && st.Count < 1 {
			err = errors.New("reset-storm needs n>=1")
		}
	case "gap":
		st.Gap, err = time.ParseDuration(val)
		if err == nil && st.Gap < 0 {
			err = errors.New("negative gap")
		}
	default:
		err = fmt.Errorf("unknown option %q", key)
	}
	return err
}

// nonNegative parses an endpoint index or an opportunity count.
func nonNegative(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative value %d", n)
	}
	return n, err
}

// String renders the spec in the fault language.
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, st := range s {
		parts[i] = st.String()
	}
	return strings.Join(parts, "; ")
}

// Timed returns the spec's first timed statement, if it has one. A caller
// with no schedule driver refuses it.
func (s Spec) Timed() (Statement, bool) {
	for _, st := range s {
		if st.Timed() {
			return st, true
		}
	}
	return Statement{}, false
}

// Check refuses a statement aimed at a device or an endpoint that does
// not exist, given the device count and each device's endpoint count.
func (s Spec) Check(devices, endpoints int) error {
	for _, st := range s {
		if st.Dev >= devices {
			return fmt.Errorf("fault: %q targets dev%d, but there are %d devices", st, st.Dev, devices)
		}
		if st.Endpoint >= endpoints {
			return fmt.Errorf("fault: %q targets ep=%d, but a device has %d endpoints", st, st.Endpoint, endpoints)
		}
	}
	return nil
}

// Injectors builds one injector per device: device d's is seeded seed+d
// and holds the untimed rules aimed at d or at every device, so a rule's
// counts (after=, limit=) run per device. When the spec has no rule at
// all, every entry is nil, the free default.
func (s Spec) Injectors(devices int, seed int64) []*Injector {
	injs := make([]*Injector, devices)
	if !slices.ContainsFunc(s, func(st Statement) bool { return st.Kind != ResetStorm }) {
		return injs
	}
	for d := range injs {
		var rules []Rule
		for _, st := range s {
			if !st.Timed() && (st.Dev == AnyDevice || st.Dev == d) {
				rules = append(rules, st.Rule)
			}
		}
		injs[d] = NewInjector(seed+int64(d), rules...)
	}
	return injs
}

// Change is one point in a timed statement's life: a rule's window opens
// or closes, or a reset-storm resets once.
type Change struct {
	// At is the change's offset from the schedule's start.
	At time.Duration
	// Stmt is the statement's index in the Spec.
	Stmt int
	// Close marks a window closing; a storm's resets are never closes.
	Close bool
}

// Due returns the changes that fall in the elapsed interval (t0, t1], in
// time order; at one instant closes come first, then statement order. It
// reads no clock: the schedule is the same for any driver.
func (s Spec) Due(t0, t1 time.Duration) []Change {
	var out []Change
	add := func(at time.Duration, i int, close bool) {
		if at > t0 && at <= t1 {
			out = append(out, Change{At: at, Stmt: i, Close: close})
		}
	}
	for i, st := range s {
		switch {
		case st.Kind == ResetStorm:
			for n := 0; n < st.Count && st.At+time.Duration(n)*st.Gap <= t1; n++ {
				add(st.At+time.Duration(n)*st.Gap, i, false)
			}
		case st.Window > 0:
			add(st.At, i, false)
			add(st.end(), i, true)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Close && !out[b].Close
	})
	return out
}

// Duration returns the offset of the schedule's last change: when every
// window has closed and every storm has finished.
func (s Spec) Duration() time.Duration {
	var end time.Duration
	for _, st := range s {
		if st.Timed() {
			end = max(end, st.end())
		}
	}
	return end
}

// Apply is the wall-clock driver over Due: it runs the schedule against
// live devices from now. injs holds one injector per device
// (Spec.Injectors builds them). A window opening adds the statement's
// rule to its device's injector, or to every device's without dev<N>, and
// its closing removes it; a storm reset calls reset(dev) the same way.
// Apply returns once the last change is applied or ctx ends, and in both
// cases leaves none of its rules installed.
func (s Spec) Apply(ctx context.Context, injs []*Injector, reset func(dev int)) error {
	open := map[int][]*Rule{} // statement index → its rule's handle per device
	defer func() {
		for _, hs := range open {
			for d, h := range hs {
				injs[d].RemoveRule(h)
			}
		}
	}()
	start := time.Now()
	for _, c := range s.Due(-1, s.Duration()) {
		if wait := c.At - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		st := s[c.Stmt]
		if c.Close {
			for d, h := range open[c.Stmt] {
				injs[d].RemoveRule(h)
			}
			delete(open, c.Stmt)
			continue
		}
		hs := make([]*Rule, len(injs))
		for d := range injs {
			switch {
			case st.Dev != AnyDevice && st.Dev != d:
			case st.Kind == ResetStorm:
				reset(d)
			default:
				hs[d] = injs[d].AddRule(st.Rule)
			}
		}
		if st.Kind != ResetStorm {
			open[c.Stmt] = hs
		}
	}
	return nil
}
