package fault

import (
	"strings"
	"testing"
	"time"
)

// A nil injector is the free default: no faults, zero counters.
func TestNilInjectorIsFree(t *testing.T) {
	var inj *Injector
	if out := inj.AtSubmit(0, 0); out != (Outcome{}) {
		t.Fatalf("nil AtSubmit = %+v", out)
	}
	if out := inj.AtService(0, 0); out != (Outcome{}) {
		t.Fatalf("nil AtService = %+v", out)
	}
	if inj.TotalInjected() != 0 || inj.Injected(Stall) != 0 {
		t.Fatal("nil injector counted injections")
	}
	if inj.String() != "fault: none" {
		t.Fatalf("String = %q", inj.String())
	}
	inj.SetEventSink(nil) // must not panic
}

// Same seed and rule set → identical decision sequence.
func TestInjectorDeterministic(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(42, Rule{Kind: Drop, Endpoint: AnyEndpoint, Op: AnyOp, P: 0.3})
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		oa, ob := a.AtService(i%3, i%5), b.AtService(i%3, i%5)
		if oa != ob {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, oa, ob)
		}
	}
	if a.TotalInjected() == 0 {
		t.Fatal("p=0.3 over 1000 opportunities injected nothing")
	}
	if a.TotalInjected() != b.TotalInjected() {
		t.Fatal("totals diverged")
	}
}

func TestProbabilityExtremes(t *testing.T) {
	always := NewInjector(1, Rule{Kind: Stall, Endpoint: AnyEndpoint, Op: AnyOp, P: 1})
	never := NewInjector(1, Rule{Kind: Stall, Endpoint: AnyEndpoint, Op: AnyOp, P: 0})
	for i := 0; i < 100; i++ {
		if !always.AtService(0, 0).Stall {
			t.Fatal("p=1 did not fire")
		}
		if never.AtService(0, 0).Stall {
			t.Fatal("p=0 fired")
		}
	}
	if always.Injected(Stall) != 100 || never.Injected(Stall) != 0 {
		t.Fatalf("counts = %d, %d", always.Injected(Stall), never.Injected(Stall))
	}
}

func TestSelectorsAndPhases(t *testing.T) {
	inj := NewInjector(7,
		Rule{Kind: RingFull, Endpoint: 1, Op: AnyOp, P: 1},
		Rule{Kind: Corrupt, Endpoint: AnyEndpoint, Op: 2, P: 1},
	)
	// RingFull is a submit-time fault: never fires at service time.
	if inj.AtService(1, 0) != (Outcome{}) {
		t.Fatal("submit-time kind fired at service time")
	}
	// Endpoint selector.
	if inj.AtSubmit(0, 0).RingFull {
		t.Fatal("endpoint selector ignored")
	}
	if !inj.AtSubmit(1, 0).RingFull {
		t.Fatal("matching endpoint did not fire")
	}
	// Op selector at service time.
	if inj.AtService(0, 1).Corrupt {
		t.Fatal("op selector ignored")
	}
	if !inj.AtService(0, 2).Corrupt {
		t.Fatal("matching op did not fire")
	}
}

func TestAfterAndLimit(t *testing.T) {
	inj := NewInjector(3, Rule{Kind: Reset, Endpoint: AnyEndpoint, Op: AnyOp, P: 1, After: 5, Limit: 2})
	fired := 0
	for i := 0; i < 20; i++ {
		if inj.AtSubmit(0, 0).Reset {
			if i < 5 {
				t.Fatalf("fired during the after-window at opportunity %d", i)
			}
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want limit 2", fired)
	}
}

func TestLatencyStacks(t *testing.T) {
	inj := NewInjector(9,
		Rule{Kind: Latency, Endpoint: AnyEndpoint, Op: AnyOp, P: 1, Latency: 2 * time.Millisecond},
		Rule{Kind: Latency, Endpoint: AnyEndpoint, Op: AnyOp, P: 1, Latency: 3 * time.Millisecond},
	)
	if d := inj.AtService(0, 0).ExtraLatency; d != 5*time.Millisecond {
		t.Fatalf("stacked latency = %v", d)
	}
}

// The event sink hears every injection with its detail, and the total a
// scrape reads (qat_faults_injected) is the same count.
func TestSinkMirrorsInjections(t *testing.T) {
	inj := NewInjector(11, Rule{Kind: Drop, Endpoint: AnyEndpoint, Op: AnyOp, P: 1})
	calls := 0
	inj.SetEventSink(func(k Kind, endpoint, op int) {
		if k != Drop || endpoint != 2 || op != 3 {
			t.Fatalf("sink got %v on endpoint %d op %d", k, endpoint, op)
		}
		calls++
	})
	for i := 0; i < 7; i++ {
		inj.AtService(2, 3)
	}
	if calls != 7 || inj.TotalInjected() != 7 {
		t.Fatalf("sink calls = %d, TotalInjected = %d, want 7 and 7", calls, inj.TotalInjected())
	}
}

func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec(grammarSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rules := inj.Rules()
	if len(rules) != 4 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].Kind != Stall || rules[0].Endpoint != 0 || rules[0].Op != 0 || rules[0].P != 1 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Kind != Latency || rules[1].Latency != 5*time.Millisecond || rules[1].P != 0.2 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Kind != RingFull || rules[2].Limit != 100 {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if rules[3].Kind != Reset || rules[3].After != 1000 || rules[3].Limit != 1 {
		t.Fatalf("rule 3 = %+v", rules[3])
	}
	if !strings.Contains(inj.String(), "stall:ep=0,op=rsa,p=1") {
		t.Fatalf("String = %q", inj.String())
	}
}

func TestParseSpecEmpty(t *testing.T) {
	inj, err := ParseSpec("  ", 1)
	if err != nil || inj != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", inj, err)
	}
}

// Every spec the tests below and the README's -fault examples parse;
// FuzzParseSpec seeds from them.
var (
	grammarSpec   = "stall:ep=0,op=rsa,p=1 latency:d=5ms,p=0.2;ringfull:p=0.5,limit=100 reset:after=1000,limit=1"
	exampleSpecs  = []string{"stall:op=rsa,p=1", "stall:ep=0,op=rsa,p=1", "reset:after=500,limit=1", "stall:op=rsa,p=0.2 latency:d=2ms,p=0.5"}
	specErrorRows = []struct{ spec, option string }{
		{"explode", "kind"},            // unknown kind
		{"stall:p=2", "p"},             // probability out of range
		{"stall:p=NaN", "p"},           // not a probability
		{"stall:wat=1", "wat"},         // unknown option
		{"stall:p", "stall:p"},         // malformed option
		{"latency:p=1", "d="},          // latency without d=
		{"stall:op=des", "op"},         // unknown op
		{"drop:after=x", "after"},      // bad int
		{"stall:d=5ms", "d"},           // a duration String would drop
		{"ringfull:limit=-1", "limit"}, // negative counts String would drop
		{"drop:after=-4", "after"},
		{"stall:ep=-7", "ep"}, // the wildcard is omitting ep=
		{"stall:ep=-1", "ep"},
	}
)

func TestParseSpecErrors(t *testing.T) {
	for _, row := range specErrorRows {
		_, err := ParseSpec(row.spec, 1)
		if err == nil {
			t.Fatalf("spec %q accepted", row.spec)
		}
		if !strings.Contains(err.Error(), row.option) {
			t.Fatalf("spec %q: error %q does not name %q", row.spec, err, row.option)
		}
	}
}

// FuzzParseSpec feeds operator bytes to the -fault grammar: parsing never
// panics, and every rule a spec yields renders (Rule.String) to a spec
// that parses back to an equal rule.
func FuzzParseSpec(f *testing.F) {
	f.Add(grammarSpec)
	f.Add("drop")
	for _, s := range exampleSpecs {
		f.Add(s)
	}
	for _, row := range specErrorRows {
		f.Add(row.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := ParseSpec(spec, 1)
		if err != nil {
			return
		}
		for _, r := range inj.Rules() {
			back, err := ParseSpec(r.String(), 1)
			if err != nil {
				t.Fatalf("%q: rule %+v renders as %q, which does not parse: %v", spec, r, r.String(), err)
			}
			if got := back.Rules(); len(got) != 1 || got[0] != r {
				t.Fatalf("%q: rule %+v renders as %q, which parses to %+v", spec, r, r.String(), got)
			}
		}
	})
}

// Defaults: bare kind means p=1, any endpoint, any op.
func TestParseSpecDefaults(t *testing.T) {
	inj, err := ParseSpec("drop", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := inj.Rules()[0]
	if r.P != 1 || r.Endpoint != AnyEndpoint || r.Op != AnyOp {
		t.Fatalf("defaults = %+v", r)
	}
	if !inj.AtService(4, 3).Drop {
		t.Fatal("bare rule did not fire everywhere")
	}
}
