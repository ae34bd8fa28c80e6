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
	spec, err := ParseSpec(grammarSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) != 4 {
		t.Fatalf("statements = %d", len(spec))
	}
	if r := spec[0]; r.Kind != Stall || r.Endpoint != 0 || r.Op != 0 || r.P != 1 || r.Dev != AnyDevice || r.Timed() {
		t.Fatalf("statement 0 = %+v", r)
	}
	if r := spec[1]; r.Kind != Latency || r.Latency != 5*time.Millisecond || r.P != 0.2 {
		t.Fatalf("statement 1 = %+v", r)
	}
	if r := spec[2]; r.Kind != RingFull || r.Limit != 100 {
		t.Fatalf("statement 2 = %+v", r)
	}
	if r := spec[3]; r.Kind != Reset || r.After != 1000 || r.Limit != 1 {
		t.Fatalf("statement 3 = %+v", r)
	}
	inj := spec.Injectors(1, 1)[0]
	if !strings.Contains(inj.String(), "stall ep=0 op=rsa; latency p=0.2 d=5ms") {
		t.Fatalf("String = %q", inj.String())
	}
}

func TestParseSpecEmpty(t *testing.T) {
	spec, err := ParseSpec("  ")
	if err != nil || spec != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", spec, err)
	}
	for _, inj := range spec.Injectors(2, 1) {
		if inj != nil {
			t.Fatal("an empty spec built an injector")
		}
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
		_, err := ParseSpec(row.spec)
		if err == nil {
			t.Fatalf("spec %q accepted", row.spec)
		}
		if !strings.Contains(err.Error(), row.option) {
			t.Fatalf("spec %q: error %q does not name %q", row.spec, err, row.option)
		}
	}
}

// FuzzParseSpec feeds operator bytes to the fault language: parsing never
// panics, and every statement a spec yields renders (Statement.String) to
// text that parses back to an equal statement. It is seeded with both
// corpora the language grew from (the -fault rules and the chaos
// schedules) and every spec the docs cite.
func FuzzParseSpec(f *testing.F) {
	f.Add(grammarSpec)
	f.Add("drop")
	for _, s := range exampleSpecs {
		f.Add(s)
	}
	for _, row := range specErrorRows {
		f.Add(row.spec)
	}
	for _, s := range []string{grammarSchedule, durationSchedule, applySchedule, cancelSchedule} {
		f.Add(s)
	}
	for _, s := range []string{"t=0ms dev1 stall 700ms", "t=0ms dev1 reset-storm n=4 gap=30ms",
		"t=5s dev1 stall 10s; t=30s dev0 reset-storm n=4 gap=50ms", "t=5s dev1 stall 10s", "t=2s dev1 stall 3s"} {
		f.Add(s)
	}
	for _, s := range emptySchedules {
		f.Add(s)
	}
	for _, c := range scheduleErrorCases {
		f.Add(c.src)
	}
	for _, m := range migrated {
		f.Add(m.src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			return
		}
		spec.Duration()
		for _, st := range spec {
			back, err := ParseSpec(st.String())
			if err != nil {
				t.Fatalf("%q: statement %+v renders as %q, which does not parse: %v", text, st, st.String(), err)
			}
			if len(back) != 1 || back[0] != st {
				t.Fatalf("%q: statement %+v renders as %q, which parses to %+v", text, st, st.String(), back)
			}
		}
	})
}

// Defaults: bare kind means p=1, any endpoint, any op, every device.
func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("drop")
	if err != nil {
		t.Fatal(err)
	}
	r := spec[0]
	if r.P != 1 || r.Endpoint != AnyEndpoint || r.Op != AnyOp || r.Dev != AnyDevice {
		t.Fatalf("defaults = %+v", r)
	}
	if !spec.Injectors(1, 1)[0].AtService(4, 3).Drop {
		t.Fatal("bare rule did not fire everywhere")
	}
}

// Each device gets its own injector: a statement with dev<N> reaches
// device N only, one without reaches every device, and device d's
// injector is seeded seed+d.
func TestInjectorsPerDevice(t *testing.T) {
	spec, err := ParseSpec("dev1 drop; corrupt")
	if err != nil {
		t.Fatal(err)
	}
	injs := spec.Injectors(2, 1)
	if injs[0].AtService(0, 0).Drop || !injs[1].AtService(0, 0).Drop || !injs[0].AtService(0, 0).Corrupt {
		t.Fatalf("dev1 drop reached the wrong device: %v / %v", injs[0], injs[1])
	}
	if spec.Injectors(1, 7)[0].String() != "fault: corrupt" {
		t.Fatalf("device 0's injector = %v", spec.Injectors(1, 7)[0])
	}
	lossy, err := ParseSpec("drop p=0.5")
	if err != nil {
		t.Fatal(err)
	}
	a, b := lossy.Injectors(2, 7), NewInjector(8, lossy[0].Rule)
	for i := 0; i < 64; i++ {
		if a[1].AtService(0, 0) != b.AtService(0, 0) {
			t.Fatalf("device 1's decision %d differs from an injector seeded 8", i)
		}
	}
}
