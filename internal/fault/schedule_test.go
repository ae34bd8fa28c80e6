package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// The timed statements of the fault language — its schedule. Every
// script the tests below parse; FuzzParseSchedule seeds from them.
const (
	grammarSchedule = `
	t=0s dev1 stall 10s              # wedge device 1
	t=5s dev0 drop 2s p=0.5 op=rsa; t=5s dev0 latency 1s d=3ms
	t=30s dev1 RESET-STORM n=4 gap=25ms
	t=40s dev2 ringfull 500ms p=0.25
	`
	durationSchedule = "t=1s dev0 stall 10s; t=5s dev1 reset-storm n=4 gap=1s; t=8s dev0 drop 2s"
	applySchedule    = "t=0s dev0 stall 60ms op=rsa; t=0s dev1 reset-storm n=3 gap=5ms"
	cancelSchedule   = "t=1h dev0 stall 1s"
)

var emptySchedules = []string{"", "  \n\t", "# nothing ; here\n# either"}

// Statement constructors for the expectations below.
func rule(k Kind, ep, op int, p float64, lat time.Duration, after, limit int) Statement {
	return Statement{Rule: Rule{Kind: k, Endpoint: ep, Op: op, P: p, Latency: lat, After: after, Limit: limit}, Dev: AnyDevice}
}

func window(dev int, k Kind, at, w time.Duration, op int, p float64, lat time.Duration) Statement {
	return Statement{Rule: Rule{Kind: k, Endpoint: AnyEndpoint, Op: op, P: p, Latency: lat}, Dev: dev, At: at, Window: w}
}

func storm(dev int, at time.Duration, n int, gap time.Duration) Statement {
	return Statement{Rule: Rule{Kind: ResetStorm, Endpoint: AnyEndpoint, Op: AnyOp, P: 1}, Dev: dev, At: at, Count: n, Gap: gap}
}

const ms, s = time.Millisecond, time.Second

// migrated is every string of the two grammars the fault language
// replaced — both test corpora and every spec the docs cite — with the
// rules and events the old parsers gave it, as statements.
var migrated = []struct {
	src  string
	want Spec
}{
	{grammarSpec, Spec{rule(Stall, 0, 0, 1, 0, 0, 0), rule(Latency, AnyEndpoint, AnyOp, 0.2, 5*ms, 0, 0),
		rule(RingFull, AnyEndpoint, AnyOp, 0.5, 0, 0, 100), rule(Reset, AnyEndpoint, AnyOp, 1, 0, 1000, 1)}},
	{"drop", Spec{rule(Drop, AnyEndpoint, AnyOp, 1, 0, 0, 0)}},
	{"stall:op=rsa,p=1", Spec{rule(Stall, AnyEndpoint, 0, 1, 0, 0, 0)}},
	{"stall:ep=0,op=rsa,p=1", Spec{rule(Stall, 0, 0, 1, 0, 0, 0)}},
	{"reset:after=500,limit=1", Spec{rule(Reset, AnyEndpoint, AnyOp, 1, 0, 500, 1)}},
	{"stall:op=rsa,p=0.2 latency:d=2ms,p=0.5", Spec{rule(Stall, AnyEndpoint, 0, 0.2, 0, 0, 0), rule(Latency, AnyEndpoint, AnyOp, 0.5, 2*ms, 0, 0)}},
	{"stall:p=1", Spec{rule(Stall, AnyEndpoint, AnyOp, 1, 0, 0, 0)}},
	{"stall:op=rsa,p=0.1", Spec{rule(Stall, AnyEndpoint, 0, 0.1, 0, 0, 0)}},
	{"latency:d=5ms,p=0.2", Spec{rule(Latency, AnyEndpoint, AnyOp, 0.2, 5*ms, 0, 0)}},
	{"ringfull:p=0.5,limit=100", Spec{rule(RingFull, AnyEndpoint, AnyOp, 0.5, 0, 0, 100)}},
	{"reset:after=1000,limit=1", Spec{rule(Reset, AnyEndpoint, AnyOp, 1, 0, 1000, 1)}},
	{grammarSchedule, Spec{window(1, Stall, 0, 10*s, AnyOp, 1, 0), window(0, Drop, 5*s, 2*s, 0, 0.5, 0),
		window(0, Latency, 5*s, s, AnyOp, 1, 3*ms), storm(1, 30*s, 4, 25*ms), window(2, RingFull, 40*s, 500*ms, AnyOp, 0.25, 0)}},
	{durationSchedule, Spec{window(0, Stall, s, 10*s, AnyOp, 1, 0), storm(1, 5*s, 4, s), window(0, Drop, 8*s, 2*s, AnyOp, 1, 0)}},
	{applySchedule, Spec{window(0, Stall, 0, 60*ms, 0, 1, 0), storm(1, 0, 3, 5*ms)}},
	{cancelSchedule, Spec{window(0, Stall, time.Hour, s, AnyOp, 1, 0)}},
	{"t=0ms dev1 stall 700ms", Spec{window(1, Stall, 0, 700*ms, AnyOp, 1, 0)}},
	{"t=0ms dev1 reset-storm n=4 gap=30ms", Spec{storm(1, 0, 4, 30*ms)}},
	{"t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms", Spec{window(1, Stall, 5*s, 10*s, AnyOp, 1, 0), storm(0, 30*s, 4, 50*ms)}},
	{"t=5s dev1 stall 10s", Spec{window(1, Stall, 5*s, 10*s, AnyOp, 1, 0)}},
	{"t=2s dev1 stall 3s", Spec{window(1, Stall, 2*s, 3*s, AnyOp, 1, 0)}},
	{"t=3s dev1 stall 4s", Spec{window(1, Stall, 3*s, 4*s, AnyOp, 1, 0)}},
	{"t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4", Spec{window(1, Stall, 5*s, 10*s, AnyOp, 1, 0), storm(0, 30*s, 4, 50*ms)}},
}

// TestMigratedCorpora: every rule of the old -fault grammar and every
// script of the old chaos grammar parses to the statements its old
// parser's rules and events describe, and
// renders back to a spec that parses to the same statements.
func TestMigratedCorpora(t *testing.T) {
	for _, m := range migrated {
		got, err := ParseSpec(m.src)
		if err != nil {
			t.Fatalf("%q: %v", m.src, err)
		}
		again, err := ParseSpec(got.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", m.src, got, err)
		}
		for _, spec := range []Spec{got, again} {
			if len(spec) != len(m.want) {
				t.Fatalf("%q: %d statements, want %d: %v", m.src, len(spec), len(m.want), spec)
			}
			for i := range spec {
				if spec[i] != m.want[i] {
					t.Fatalf("%q: statement %d = %+v, want %+v", m.src, i, spec[i], m.want[i])
				}
			}
		}
	}
}

// TestParseSchedule pins the timed grammar: statement separators (';'
// and newlines), comments, the bare-duration window, and the rendering.
func TestParseSchedule(t *testing.T) {
	spec, err := ParseSpec(grammarSchedule)
	if err != nil {
		t.Fatal(err)
	}
	want := "t=0s dev1 stall 10s; t=5s dev0 drop 2s op=rsa p=0.5; t=5s dev0 latency 1s d=3ms; " +
		"t=30s dev1 reset-storm n=4 gap=25ms; t=40s dev2 ringfull 500ms p=0.25"
	if spec.String() != want {
		t.Fatalf("String = %q, want %q", spec, want)
	}
	if st, ok := spec.Timed(); !ok || st != spec[0] {
		t.Fatalf("Timed = %v, %v", st, ok)
	}
	if _, ok := (Spec{rule(Drop, AnyEndpoint, AnyOp, 1, 0, 0, 0)}).Timed(); ok {
		t.Fatal("an untimed spec reported a timed statement")
	}
}

// TestParseScheduleEmpty: empty and comment-only scripts parse to the
// nil spec, which Duration, String, Due and Apply all accept as a no-op.
func TestParseScheduleEmpty(t *testing.T) {
	for _, src := range emptySchedules {
		spec, err := ParseSpec(src)
		if err != nil || spec != nil {
			t.Fatalf("ParseSpec(%q) = %v, %v; want nil, nil", src, spec, err)
		}
	}
	var spec Spec
	if spec.Duration() != 0 || spec.String() != "" || spec.Due(-1, time.Hour) != nil {
		t.Fatal("nil spec must be quiet")
	}
	if err := spec.Apply(context.Background(), nil, nil); err != nil {
		t.Fatalf("nil spec Apply: %v", err)
	}
}

// scheduleErrorCases are malformed statements and what each error
// message must name. The first sixteen are the old chaos grammar's.
var scheduleErrorCases = []struct {
	src  string
	want string
}{
	{"dev1 stall 1s", "needs t=<offset>"},
	{"t=1s stall", "needs a window duration"},
	{"t=nope dev1 stall 1s", "bad offset"},
	{"t=1s d1 stall 1s", `unknown kind "d1"`},
	{"t=1s dev-1 stall 1s", "bad device"},
	{"t=1s devx stall 1s", "bad device"},
	{"t=1s dev1 explode 1s", "unknown kind"},
	{"t=1s dev1 stall", "needs a window duration"},
	{"t=1s dev1 stall 1s p=2", "probability"},
	{"t=1s dev1 stall 1s p=NaN", "probability"},
	{"t=1s dev1 stall 1s op=quantum", "unknown op"},
	{"t=1s dev1 stall 1s foo=bar", "unknown option"},
	{"t=1s dev1 latency 1s", "needs d=<delay>"},
	{"t=1s dev1 reset-storm 5s", "n=/gap= options"},
	{"t=1s dev1 reset-storm n=0", "n>=1"},
	{"t=5s dev1 stall 1s; t=1s dev0 stall 1s", "time order"},
	// Options the renderer would not print are refused, naming the option.
	{"t=1s dev0 stall 1s d=5ms", "d in"},
	{"t=1s dev0 stall 1s n=7", "n in"},
	{"t=1s dev0 stall 1s gap=1s", "gap in"},
	{"stall n=7", "n in"},
	{"t=1s dev0 reset-storm p=0.5", "p in"},
	{"t=1s dev0 reset-storm op=rsa", "op in"},
	{"t=1s dev0 reset-storm d=1ms", "d in"},
	{"t=1s dev0 reset-storm ep=1", "ep in"},
	{"t=1s dev0 reset-storm gap=-5ms", "negative gap"},
	{"t=-1s dev0 stall 1s", "bad offset"},
	{"dev0 reset-storm", "needs t=<offset>"},
	{"t=1s dev0 stall 0s", "bad window"},
	{"t=5s", "has no kind"},
	{"t=2562047h dev0 stall 2562047h", "longest duration"},
	{"t=1s reset-storm n=1000 gap=2562047h", "longest duration"},
}

// TestParseScheduleErrors pins rejection of malformed statements with a
// message naming the problem.
func TestParseScheduleErrors(t *testing.T) {
	for _, c := range scheduleErrorCases {
		_, err := ParseSpec(c.src)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted", c.src)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseSpec(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

// FuzzParseSchedule feeds operator bytes to the timed statements of the
// fault language: parsing never panics, no probability outside [0,1] is
// accepted, and a spec that parses renders back (String) to a spec that
// parses and renders the same again.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{grammarSchedule, durationSchedule, applySchedule, cancelSchedule,
		// The chaos soak's schedules and README's -chaos examples.
		"t=0ms dev1 stall 700ms",
		"t=0ms dev1 reset-storm n=4 gap=30ms",
		"t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms",
		"t=5s dev1 stall 10s",
		"t=2s dev1 stall 3s",
	}
	seeds = append(seeds, emptySchedules...)
	for _, c := range scheduleErrorCases {
		seeds = append(seeds, c.src)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := ParseSpec(src)
		if err != nil {
			return
		}
		spec.Duration()
		for _, st := range spec {
			if !(st.P >= 0 && st.P <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %v", src, st.P)
			}
		}
		text := spec.String()
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q) parsed, its rendering %q does not: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("ParseSpec(%q) renders %q, which re-renders as %q", src, text, got)
		}
	})
}

// TestScheduleDuration: the quiet point is the latest change, counting a
// storm's last reset.
func TestScheduleDuration(t *testing.T) {
	spec, err := ParseSpec(durationSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Duration(), 11*time.Second; got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
}

// dueSchedule has two overlapping windows on device 0, a storm on
// device 1 and an untimed rule, which is never due.
const dueSchedule = "drop; t=1s dev0 stall 2s; t=2s dev0 corrupt 2s; t=3s dev1 reset-storm n=3 gap=500ms"

// TestDueWindows: a window opens at t= and closes at t=+window, each
// change due in exactly one half-open interval (t0, t1]; at one instant
// closes come first.
func TestDueWindows(t *testing.T) {
	spec, err := ParseSpec(dueSchedule)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t0, t1 time.Duration
		want   []Change
	}{
		{-1, 0, nil},
		{0, 999 * ms, nil},
		{999 * ms, s, []Change{{At: s, Stmt: 1}}},
		{s, s, nil},
		{s, 2 * s, []Change{{At: 2 * s, Stmt: 2}}},
		// The stall closes as the storm's first reset falls due.
		{2 * s, 3 * s, []Change{{At: 3 * s, Stmt: 1, Close: true}, {At: 3 * s, Stmt: 3}}},
		{3 * s, 4 * s, []Change{{At: 3500 * ms, Stmt: 3}, {At: 4 * s, Stmt: 2, Close: true}, {At: 4 * s, Stmt: 3}}},
		{4 * s, time.Hour, nil},
	}
	var all []Change
	for _, c := range cases {
		got := spec.Due(c.t0, c.t1)
		if len(got) != len(c.want) {
			t.Fatalf("Due(%v, %v) = %+v, want %+v", c.t0, c.t1, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Due(%v, %v) = %+v, want %+v", c.t0, c.t1, got, c.want)
			}
		}
		all = append(all, got...)
	}
	// Consecutive intervals partition the schedule: the whole-run query
	// gives the same changes.
	whole := spec.Due(-1, spec.Duration())
	if len(whole) != len(all) {
		t.Fatalf("Due over the whole run = %+v, want %+v", whole, all)
	}
	for i := range whole {
		if whole[i] != all[i] {
			t.Fatalf("Due over the whole run = %+v, want %+v", whole, all)
		}
	}
	if spec.Duration() != 4*s {
		t.Fatalf("Duration = %v, want 4s", spec.Duration())
	}
}

// TestDueOverlap: two windows on one device overlap from 2s to 3s, and
// replaying the changes due up to each instant onto an injector installs
// exactly the rules whose windows hold at that instant.
func TestDueOverlap(t *testing.T) {
	spec, err := ParseSpec(dueSchedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		at             time.Duration
		stall, corrupt bool
	}{{500 * ms, false, false}, {s, true, false}, {2500 * ms, true, true}, {3 * s, false, true}, {4 * s, false, false}} {
		inj := NewInjector(1)
		handles := map[int]*Rule{}
		for _, ch := range spec.Due(-1, c.at) {
			switch {
			case spec[ch.Stmt].Kind == ResetStorm:
			case ch.Close:
				inj.RemoveRule(handles[ch.Stmt])
			default:
				handles[ch.Stmt] = inj.AddRule(spec[ch.Stmt].Rule)
			}
		}
		out := inj.AtService(0, 0)
		if out.Stall != c.stall || out.Corrupt != c.corrupt {
			t.Fatalf("at %v: %+v, want stall=%v corrupt=%v (%v)", c.at, out, c.stall, c.corrupt, inj)
		}
	}
}

// TestDueStormSpacing: a storm's resets fall n times, gap apart from t=;
// with gap=0 they all fall at t=.
func TestDueStormSpacing(t *testing.T) {
	spec, err := ParseSpec("t=1s dev0 reset-storm n=4 gap=250ms; t=2s dev1 reset-storm n=3 gap=0s")
	if err != nil {
		t.Fatal(err)
	}
	var at []time.Duration
	for _, c := range spec.Due(-1, time.Hour) {
		if c.Close {
			t.Fatalf("a storm closed: %+v", c)
		}
		at = append(at, c.At)
	}
	want := []time.Duration{s, 1250 * ms, 1500 * ms, 1750 * ms, 2 * s, 2 * s, 2 * s}
	if len(at) != len(want) {
		t.Fatalf("resets at %v, want %v", at, want)
	}
	for i := range at {
		if at[i] != want[i] {
			t.Fatalf("resets at %v, want %v", at, want)
		}
	}
	if got := spec.Due(1250*ms, 1750*ms); len(got) != 2 || got[0].At != 1500*ms || got[1].At != 1750*ms {
		t.Fatalf("Due(1.25s, 1.75s) = %+v", got)
	}
	if got := spec.Due(2*s, time.Hour); got != nil {
		t.Fatalf("Due(2s, 1h) = %+v, want nothing after the last reset", got)
	}
}

// TestScheduleApply drives a fast schedule through the wall-clock driver
// end to end: the storm's resets land while the stall window is open on
// device 0, and Apply returns once the window has closed.
func TestScheduleApply(t *testing.T) {
	spec, err := ParseSpec(applySchedule)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	var mu sync.Mutex
	resets := map[int]int{}
	stalledAtReset := 0
	start := time.Now()
	err = spec.Apply(context.Background(), []*Injector{inj, nil}, func(dev int) {
		mu.Lock()
		defer mu.Unlock()
		resets[dev]++
		if inj.AtService(0, 0).Stall {
			stalledAtReset++
		}
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("Apply returned after %v, before the stall window closed", elapsed)
	}
	if inj.AtService(0, 0).Stall || inj.String() != "fault: " {
		t.Fatalf("stall rule still installed after its window: %v", inj)
	}
	mu.Lock()
	defer mu.Unlock()
	if resets[1] != 3 || len(resets) != 1 || stalledAtReset != 3 {
		t.Fatalf("resets %v (%d under the stall window), want dev1 reset 3 times, all under it", resets, stalledAtReset)
	}
}

// TestScheduleRunCancel: an ended context aborts the replay before
// far-future changes fall due, and leaves no rule installed.
func TestScheduleRunCancel(t *testing.T) {
	spec, err := ParseSpec("t=0s dev0 drop 2h; " + cancelSchedule)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := spec.Apply(ctx, []*Injector{inj}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Apply = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Apply did not abort promptly")
	}
	if inj.String() != "fault: " {
		t.Fatalf("a cancelled Apply left rules installed: %v", inj)
	}
}
