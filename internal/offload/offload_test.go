package offload

import (
	"testing"
	"time"
)

func TestWithDefaults(t *testing.T) {
	p := PollPolicy{}.WithDefaults()
	if p.AsymThreshold != DefaultAsymThreshold || p.SymThreshold != DefaultSymThreshold {
		t.Fatalf("thresholds = %d/%d", p.AsymThreshold, p.SymThreshold)
	}
	if p.FailoverInterval != DefaultFailoverInterval {
		t.Fatalf("failover = %v", p.FailoverInterval)
	}
	if p.Interval != DefaultPollInterval {
		t.Fatalf("interval = %v", p.Interval)
	}
	// Explicit values survive.
	q := PollPolicy{AsymThreshold: 7, SymThreshold: 3, Interval: time.Millisecond,
		FailoverInterval: time.Second}.WithDefaults()
	if q.AsymThreshold != 7 || q.SymThreshold != 3 || q.Interval != time.Millisecond ||
		q.FailoverInterval != time.Second {
		t.Fatalf("explicit values clobbered: %+v", q)
	}
}

func TestThreshold(t *testing.T) {
	p := PollPolicy{Scheme: PollHeuristic}.WithDefaults()
	if got := p.Threshold(1); got != DefaultAsymThreshold {
		t.Fatalf("asym threshold = %d", got)
	}
	if got := p.Threshold(0); got != DefaultSymThreshold {
		t.Fatalf("sym threshold = %d", got)
	}
}

func TestShouldPoll(t *testing.T) {
	p := PollPolicy{Scheme: PollHeuristic}.WithDefaults()
	cases := []struct {
		name                            string
		inflight, inflightAsym, actives int
		want                            bool
	}{
		{"nothing inflight", 0, 0, 10, false},
		{"below both constraints", 10, 1, 100, false},
		{"efficiency asym", DefaultAsymThreshold, 1, 1000, true},
		{"efficiency sym", DefaultSymThreshold, 0, 1000, true},
		{"sym count under asym threshold", DefaultSymThreshold, 1, 1000, false},
		{"timeliness", 3, 1, 3, true},
		{"timeliness excess", 3, 0, 2, true},
	}
	for _, c := range cases {
		if got := p.ShouldPoll(c.inflight, c.inflightAsym, c.actives); got != c.want {
			t.Errorf("%s: ShouldPoll(%d,%d,%d) = %v, want %v",
				c.name, c.inflight, c.inflightAsym, c.actives, got, c.want)
		}
	}
	// Non-heuristic schemes never poll heuristically.
	for _, s := range []PollScheme{PollNone, PollTimer, PollInterrupt} {
		q := PollPolicy{Scheme: s}.WithDefaults()
		if q.ShouldPoll(1000, 1000, 1) {
			t.Errorf("scheme %v: ShouldPoll fired", s)
		}
	}
}

func TestFailoverDue(t *testing.T) {
	p := PollPolicy{Scheme: PollHeuristic}.WithDefaults()
	if p.FailoverDue(0, time.Hour) {
		t.Fatal("failover with nothing in flight")
	}
	if p.FailoverDue(1, DefaultFailoverInterval-time.Microsecond) {
		t.Fatal("failover before the interval")
	}
	if !p.FailoverDue(1, DefaultFailoverInterval) {
		t.Fatal("no failover at the interval")
	}
	if (PollPolicy{Scheme: PollTimer}).WithDefaults().FailoverDue(1, time.Hour) {
		t.Fatal("failover under timer polling")
	}
}

// TestFailoverDueBoundaries pins the edge behavior of the §3.3 failover
// check on raw policies (no WithDefaults, which would replace a zero
// interval with the 5 ms default).
func TestFailoverDueBoundaries(t *testing.T) {
	zero := PollPolicy{Scheme: PollHeuristic}
	if !zero.FailoverDue(1, 0) {
		t.Fatal("zero interval must fire immediately (0 >= 0)")
	}
	p := PollPolicy{Scheme: PollHeuristic, FailoverInterval: DefaultFailoverInterval}
	if !p.FailoverDue(1, DefaultFailoverInterval) {
		t.Fatal("exact-interval elapsed must fire (>= boundary)")
	}
	if p.FailoverDue(1, DefaultFailoverInterval-time.Nanosecond) {
		t.Fatal("one nanosecond short must not fire")
	}
	// A clock regression (worker's lastPoll stamped after "now", e.g. a
	// virtual-time replay) yields a negative elapsed time: never due.
	if p.FailoverDue(1, -time.Millisecond) {
		t.Fatal("negative elapsed time must not fire")
	}
	if p.FailoverDue(0, time.Hour) {
		t.Fatal("failover with nothing in flight")
	}
}

// TestPark pins the idle decision: block when nothing is in flight, spin
// up to the budget and then park when something is, and never block past
// the next thing the loop owes.
func TestPark(t *testing.T) {
	heur := PollPolicy{Scheme: PollHeuristic}.WithDefaults()
	timer := PollPolicy{Scheme: PollTimer, Interval: 2 * time.Millisecond}.WithDefaults()
	const ms = time.Millisecond
	cases := []struct {
		name string
		p    PollPolicy
		in   Idle
		park bool
		d    time.Duration
	}{
		{"idle: nothing in flight blocks the idle wait", heur, Idle{}, true, IdleWait},
		{"idle: spins do not matter without work", heur, Idle{Spins: 1000}, true, IdleWait},
		{"idle: armed wheel bounds the block", heur, Idle{WheelTick: 25 * ms}, true, 25 * ms},
		{"idle: sub-ms wheel tick still blocks a whole ms", heur, Idle{WheelTick: 100 * time.Microsecond}, true, ms},
		{"idle: a slow wheel does not stretch the idle wait", heur, Idle{WheelTick: time.Second}, true, IdleWait},
		{"idle: op deadlines bound the block", heur, Idle{OpDeadlines: true, WheelTick: 25 * ms}, true, OpDeadlineScan},
		{"in flight: first iteration spins", heur, Idle{Inflight: 1}, false, 0},
		{"in flight: last spin of the budget", heur, Idle{Inflight: 1, Spins: IdleSpinBudget - 1}, false, 0},
		{"in flight: budget spent, park until failover", heur, Idle{Inflight: 1, Spins: IdleSpinBudget}, true, DefaultFailoverInterval},
		{"in flight: park only for the failover remainder", heur, Idle{Inflight: 3, Spins: IdleSpinBudget, SinceLastPoll: 2 * ms}, true, 3 * ms},
		{"in flight: failover due means poll now, not park", heur, Idle{Inflight: 1, Spins: IdleSpinBudget, SinceLastPoll: 5 * ms}, false, 0},
		{"in flight: failover overdue likewise", heur, Idle{Inflight: 1, Spins: 10 * IdleSpinBudget, SinceLastPoll: time.Second}, false, 0},
		{"in flight: op deadline scan caps the park", heur, Idle{Inflight: 1, Spins: IdleSpinBudget, OpDeadlines: true}, true, OpDeadlineScan},
		{"in flight: wheel tick below the failover remainder wins", heur, Idle{Inflight: 1, Spins: IdleSpinBudget, WheelTick: 2 * ms}, true, 2 * ms},
		{"no poll scheme: in flight parks until failover", PollPolicy{}.WithDefaults(), Idle{Inflight: 2, Spins: IdleSpinBudget}, true, DefaultFailoverInterval},
		{"timer: parks for its interval without spinning", timer, Idle{Inflight: 1}, true, 2 * ms},
		{"timer: sub-ms interval is a busy poll", PollPolicy{Scheme: PollTimer}.WithDefaults(), Idle{Inflight: 1, Spins: 1 << 20}, false, 0},
		{"timer: nothing in flight blocks like any idle loop", timer, Idle{}, true, IdleWait},
	}
	for _, c := range cases {
		d, park := c.p.Park(c.in)
		if park != c.park || d != c.d {
			t.Errorf("%s: Park(%+v) = (%v, %v), want (%v, %v)", c.name, c.in, d, park, c.d, c.park)
		}
	}
	// Whatever the inputs, a park is a positive duration no longer than
	// every bound that applies, and "iterate again" carries no duration.
	for _, p := range []PollPolicy{heur, timer, PollPolicy{}.WithDefaults()} {
		for inflight := 0; inflight <= 2; inflight++ {
			for _, spins := range []int{0, IdleSpinBudget - 1, IdleSpinBudget, 1 << 20} {
				for _, since := range []time.Duration{0, ms, p.FailoverInterval - 1, p.FailoverInterval, time.Hour} {
					for _, tick := range []time.Duration{0, 1, ms, time.Hour} {
						for _, opd := range []bool{false, true} {
							in := Idle{Inflight: inflight, SinceLastPoll: since, Spins: spins, OpDeadlines: opd, WheelTick: tick}
							d, park := p.Park(in)
							switch {
							case !park && d != 0:
								t.Fatalf("Park(%+v): iterate-again with d=%v", in, d)
							case park && (d <= 0 || d > IdleWait):
								t.Fatalf("Park(%+v): park for %v", in, d)
							case park && opd && d > OpDeadlineScan:
								t.Fatalf("Park(%+v): %v sleeps past the op-deadline scan", in, d)
							case park && inflight > 0 && p.Scheme != PollTimer && d > p.FailoverInterval-since:
								t.Fatalf("Park(%+v): %v sleeps past the failover deadline", in, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestNamedConfigurations(t *testing.T) {
	want := []struct {
		name   string
		useQAT bool
		async  bool
		scheme PollScheme
		notify NotifyScheme
	}{
		{"SW", false, false, PollNone, NotifierFD},
		{"QAT+S", true, false, PollNone, NotifierFD},
		{"QAT+A", true, true, PollTimer, NotifierFD},
		{"QAT+AH", true, true, PollHeuristic, NotifierFD},
		{"QTLS", true, true, PollHeuristic, NotifierKernelBypass},
	}
	got := Configurations()
	if len(got) != len(want) {
		t.Fatalf("%d configurations", len(got))
	}
	for i, w := range want {
		p := got[i]
		if p.Name != w.name || p.UseQAT != w.useQAT || p.Async != w.async ||
			p.Poll.Scheme != w.scheme || p.Notify != w.notify {
			t.Errorf("config %d = %+v, want %+v", i, p, w)
		}
		byName, ok := ByName(w.name)
		if !ok || byName.Name != w.name {
			t.Errorf("ByName(%q) = %+v, %v", w.name, byName, ok)
		}
	}
	if _, ok := ByName("QAT+X"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
}

func TestStrings(t *testing.T) {
	if PollNone.String() != "none" || PollTimer.String() != "timer" ||
		PollHeuristic.String() != "heuristic" || PollInterrupt.String() != "interrupt" {
		t.Fatal("PollScheme strings")
	}
	if NotifierFD.String() != "fd" || NotifierKernelBypass.String() != "kernel-bypass" {
		t.Fatal("NotifyScheme strings")
	}
	// Out-of-range values render the exact Go-style fallback so log lines
	// stay greppable across renames.
	if got := PollScheme(99).String(); got != "PollScheme(99)" {
		t.Fatalf("PollScheme fallback = %q", got)
	}
	if got := NotifyScheme(99).String(); got != "NotifyScheme(99)" {
		t.Fatalf("NotifyScheme fallback = %q", got)
	}
}

func TestNotifySchemeByName(t *testing.T) {
	for _, s := range []NotifyScheme{NotifierFD, NotifierKernelBypass} {
		got, ok := NotifySchemeByName(s.String())
		if !ok || got != s {
			t.Errorf("NotifySchemeByName(%q) = %v, %v", s.String(), got, ok)
		}
	}
	for _, name := range []string{"smoke-signal", "coalesced"} {
		if _, ok := NotifySchemeByName(name); ok {
			t.Errorf("NotifySchemeByName accepted %q", name)
		}
	}
}
