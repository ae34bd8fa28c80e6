package flight

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/trace"
)

// fakeClock is an injectable recorder clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func newTestRecorder(cfg Config) (*Recorder, *fakeClock) {
	clk := &fakeClock{}
	clk.ns.Store(int64(1000 * time.Second))
	cfg.Now = clk.now
	return New(cfg), clk
}

// PhaseWindow is the tests' view of one trace phase's sliding window.
func (r *Recorder) PhaseWindow(p trace.Phase) *Window { return r.phaseWin[p] }

// Every op trace names lands in its class window; any other ordinal —
// 5, the first unnamed one, and OpNone — in neither.
func TestOpClass(t *testing.T) {
	for _, c := range []struct {
		op   trace.Op
		name string
		want int
	}{
		{0, "rsa", 0},
		{1, "ecdsa", 0},
		{2, "ecdh", 0},
		{3, "prf", 1},
		{4, "cipher", 1},
		{5, "op(5)", -1},
		{trace.OpNone, "none", -1},
	} {
		if got := c.op.String(); got != c.name {
			t.Fatalf("trace.Op(%d) is named %q, want %q", int(c.op), got, c.name)
		}
		if got := opClass(c.op); got != c.want {
			t.Errorf("opClass(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFlightJournalNoteAndEvents(t *testing.T) {
	r, _ := newTestRecorder(Config{})
	j := r.Journal(3)
	j.Note(KindShed, ShedAccept, trace.OpNone, 0, 17)
	j.Note(KindDeadline, 2, trace.OpNone, 0, 18)
	r.Journal(SystemWorker).Note(KindFault, 0, trace.Op(0), 0, 1)

	evs := r.Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byKind := map[Kind]Event{}
	for _, e := range evs {
		byKind[e.Kind] = e
	}
	if e := byKind[KindShed]; e.Worker != 3 || e.Code != ShedAccept || e.Arg != 17 {
		t.Fatalf("shed event decoded wrong: %+v", e)
	}
	if e := byKind[KindDeadline]; codeName(e.Kind, e.Code) != "keepalive" || e.Arg != 18 {
		t.Fatalf("deadline event decoded wrong: %+v", e)
	}
	if e := byKind[KindFault]; e.Worker != SystemWorker || codeName(e.Kind, e.Code) != "stall" {
		t.Fatalf("fault event decoded wrong: %+v", e)
	}
	if got := r.Events(1); len(got) != 1 {
		t.Fatalf("Events(1) returned %d", len(got))
	}
}

func TestFlightJournalRingOverwritesOldest(t *testing.T) {
	r, _ := newTestRecorder(Config{})
	j := r.Journal(0)
	for i := 0; i < journalSize+12; i++ {
		j.Note(KindShed, ShedAccept, trace.OpNone, 0, int64(i))
	}
	evs := r.Events(0)
	if len(evs) != journalSize {
		t.Fatalf("retained %d events, want ring size %d", len(evs), journalSize)
	}
	if evs[0].Arg != 12 || evs[journalSize-1].Arg != journalSize+11 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", evs[0].Arg, evs[journalSize-1].Arg)
	}
}

// A nil recorder is the off switch: it and its nil journals are inert.
func TestFlightDisabledAndNilAreInert(t *testing.T) {
	var nilJ *Journal
	nilJ.Note(KindShed, ShedAccept, trace.OpNone, 0, 1) // must not panic

	var nilR *Recorder
	nilR.Check()
	nilR.Trigger("manual")
	nilR.Register(nil)
	nilR.SetDumpSink(nil)
	if nilR.Journal(0) != nil || nilR.Events(1) != nil {
		t.Fatal("nil recorder not inert")
	}
	// The span fan-out still feeds the lifetime histograms without one.
	tr := trace.NewRecorder(8)
	tr.SetEnabled(true)
	reg := metrics.NewRegistry()
	AttachTrace(tr, reg, nil)
	tr.Buffer(0).Record(trace.PhasePre, trace.Op(0), trace.TagNone, 0, time.Unix(0, 1), time.Microsecond)
	if h, _ := reg.LookupHistogram(trace.PhaseSeriesName(trace.PhasePre)); h.Count() != 1 {
		t.Fatalf("pre histogram count = %d, want 1", h.Count())
	}
	if err := nilR.WriteDump(&bytes.Buffer{}, "manual", 0); err == nil {
		t.Fatal("nil recorder WriteDump should error")
	}
}

// The hot paths must not allocate, off (a nil journal) or on (the guard
// CI enforces via the benchmarks below; this is the fast in-suite check).
func TestFlightDisabledPathsDoNotAllocate(t *testing.T) {
	var off *Journal
	if n := testing.AllocsPerRun(1000, func() {
		off.Note(KindShed, ShedAccept, trace.OpNone, 0, 1)
	}); n != 0 {
		t.Fatalf("nil-journal Note allocates %v times per call", n)
	}

	// On, the paths stay allocation-free too: windows and journals are
	// preallocated.
	r := New(Config{})
	j := r.Journal(0)
	span := trace.Span{Start: 1, Dur: 2, Phase: trace.PhaseRetrieve, Op: trace.Op(0)}
	if n := testing.AllocsPerRun(1000, func() {
		r.onSpan(span)
	}); n != 0 {
		t.Fatalf("span hook allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		j.Note(KindShed, ShedAccept, trace.OpNone, 0, 1)
	}); n != 0 {
		t.Fatalf("enabled Note allocates %v times per call", n)
	}
	slow := trace.Span{Start: 1, Dur: int64(5 * time.Millisecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0)}
	if n := testing.AllocsPerRun(1000, func() {
		r.onSpan(slow)
	}); n != 0 {
		t.Fatalf("enabled span hook allocates %v times per call", n)
	}
}

func TestFlightSpanHookFeedsWindowsAndJournal(t *testing.T) {
	r, clk := newTestRecorder(Config{})
	tr := trace.NewRecorder(64)
	tr.SetEnabled(true)
	reg := metrics.NewRegistry()
	AttachTrace(tr, reg, r)
	buf := tr.Buffer(1)

	start := time.Unix(0, clk.now())
	buf.Record(trace.PhaseRetrieve, trace.Op(0), trace.TagNone, 7, start, 100*time.Microsecond) // fast: window only
	buf.Record(trace.PhaseRetrieve, trace.Op(4), trace.TagNone, 8, start, 5*time.Millisecond)   // slow: journaled
	buf.Record(trace.PhasePoll, trace.OpNone, trace.TagFailover, 3, start, 0)                   // a batch of 3

	ws := r.PhaseWindow(trace.PhaseRetrieve).Snapshot(clk.now() + int64(5*time.Millisecond))
	if ws.Count != 2 {
		t.Fatalf("retrieve window count = %d, want 2", ws.Count)
	}
	if asym := r.classWin[0].Snapshot(clk.now()); asym.Count != 1 {
		t.Fatalf("asym window count = %d, want 1", asym.Count)
	}
	if sym := r.classWin[1].Snapshot(clk.now() + int64(5*time.Millisecond)); sym.Count != 1 {
		t.Fatalf("sym window count = %d, want 1", sym.Count)
	}
	// The same spans feed the lifetime histograms: no second record site.
	if h, _ := reg.LookupHistogram(trace.PhaseSeriesName(trace.PhaseRetrieve)); h.Count() != 2 {
		t.Fatalf("lifetime retrieve count = %d, want 2", h.Count())
	}
	if h, _ := reg.LookupHistogram(`qtls_poll_batch{cause="failover"}`); h.Count() != 1 || h.Sum() != 3 {
		t.Fatalf("failover batch histogram: count %d sum %v, want 1 / 3", h.Count(), h.Sum())
	}
	evs := r.Events(0)
	if len(evs) != 1 {
		t.Fatalf("journaled %d events, want only the slow span", len(evs))
	}
	e := evs[0]
	if e.Kind != KindSlowSpan || e.Worker != 1 || codeName(e.Kind, e.Code) != "retrieve" ||
		e.Op != trace.Op(4) || e.Dur != int64(5*time.Millisecond) || e.Arg != 8 {
		t.Fatalf("slow-span event decoded wrong: %+v", e)
	}
}

func TestFlightBreakerOpenTriggersDump(t *testing.T) {
	var mu sync.Mutex
	var reasons []string
	var captured []Event
	r, clk := newTestRecorder(Config{})
	r.SetDumpSink(func(reason string, events []Event) {
		mu.Lock()
		defer mu.Unlock()
		reasons = append(reasons, reason)
		captured = events
	})

	j := r.Journal(0)
	j.Note(KindShed, ShedAccept, trace.OpNone, 0, 5)
	j.Note(KindBreaker, 1, trace.OpNone, 0, 2) // open: must trigger
	mu.Lock()
	if len(reasons) != 1 || reasons[0] != "breaker-open" {
		mu.Unlock()
		t.Fatalf("reasons = %v, want [breaker-open]", reasons)
	}
	if len(captured) != 2 {
		mu.Unlock()
		t.Fatalf("dump captured %d events, want 2 (shed + breaker)", len(captured))
	}
	mu.Unlock()

	// Within the cooldown a second automatic trigger is suppressed.
	clk.advance(time.Second)
	j.Note(KindBreaker, 1, trace.OpNone, 0, 3)
	mu.Lock()
	if len(reasons) != 1 {
		mu.Unlock()
		t.Fatalf("cooldown did not suppress: %v", reasons)
	}
	mu.Unlock()

	// A manual Trigger ignores the cooldown.
	r.Trigger("signal")
	mu.Lock()
	if len(reasons) != 2 || reasons[1] != "signal" {
		mu.Unlock()
		t.Fatalf("manual trigger: %v", reasons)
	}
	mu.Unlock()

	// Past the cooldown, automatic triggers fire again.
	clk.advance(time.Minute)
	j.Note(KindBreaker, 1, trace.OpNone, 0, 2)
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 3 || reasons[2] != "breaker-open" {
		t.Fatalf("post-cooldown trigger: %v", reasons)
	}
	// Breaker transitions that are not "open" must not trigger.
	j.Note(KindBreaker, 0, trace.OpNone, 0, 2)
	j.Note(KindBreaker, 2, trace.OpNone, 0, 2)
	if len(reasons) != 3 {
		t.Fatalf("non-open transitions triggered: %v", reasons)
	}
}

func TestFlightSLOCheckTriggersDump(t *testing.T) {
	var got atomic.Int64
	var reason atomic.Pointer[string]
	r, clk := newTestRecorder(Config{SLOP99: time.Millisecond})
	r.SetDumpSink(func(rs string, _ []Event) {
		got.Add(1)
		reason.Store(&rs)
	})

	// Healthy traffic: Check stays quiet.
	for i := 0; i < 100; i++ {
		r.onSpan(trace.Span{Start: clk.now(), Dur: int64(100 * time.Microsecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0)})
	}
	r.Check()
	if got.Load() != 0 {
		t.Fatal("healthy traffic tripped the SLO")
	}

	// Latency step over the SLO; Check is rate-limited, so advance past
	// half a bucket first.
	clk.advance(3 * time.Second)
	for i := 0; i < 100; i++ {
		r.onSpan(trace.Span{Start: clk.now(), Dur: int64(20 * time.Millisecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0)})
	}
	r.Check()
	if got.Load() != 1 {
		t.Fatalf("SLO breach did not trigger (dumps=%d)", got.Load())
	}
	if rs := reason.Load(); rs == nil || *rs != "slo-p99" {
		t.Fatalf("reason = %v, want slo-p99", rs)
	}
}

func TestFlightShedRateCheckTriggersDump(t *testing.T) {
	var got atomic.Int64
	r, clk := newTestRecorder(Config{ShedRate: 10})
	r.SetDumpSink(func(string, []Event) { got.Add(1) })
	j := r.Journal(0)
	// 100 sheds in one bucket: ~20/s over the 5 s bucket, over the
	// 10/s threshold.
	for i := 0; i < 100; i++ {
		j.Note(KindShed, ShedAccept, trace.OpNone, 0, int64(i))
	}
	clk.advance(3 * time.Second)
	r.Check()
	if got.Load() != 1 {
		t.Fatalf("shed storm did not trigger (dumps=%d)", got.Load())
	}
}

func TestFlightCheckRateLimited(t *testing.T) {
	r, clk := newTestRecorder(Config{SLOP99: time.Millisecond})
	var got atomic.Int64
	r.SetDumpSink(func(string, []Event) { got.Add(1) })
	for i := 0; i < 100; i++ {
		r.onSpan(trace.Span{Start: clk.now(), Dur: int64(20 * time.Millisecond), Phase: trace.PhasePre, Op: trace.Op(0)})
	}
	clk.advance(3 * time.Second)
	r.Check()
	first := got.Load()
	// Immediately repeated checks are rate-limited (and the dump
	// cooldown would suppress the dump anyway).
	r.Check()
	r.Check()
	if got.Load() != first {
		t.Fatalf("rate limit failed: %d dumps", got.Load())
	}
}

func TestFlightDumpRoundTripAndReport(t *testing.T) {
	r, clk := newTestRecorder(Config{})
	r.onSpan(trace.Span{Start: clk.now(), Dur: int64(7 * time.Millisecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0), Worker: 2, Arg: 11})
	r.onSpan(trace.Span{Start: clk.now() + int64(time.Second), Dur: int64(3 * time.Millisecond), Phase: trace.PhasePost, Op: trace.Op(1), Worker: 2, Arg: 12})
	// The breaker-open note fires the anomaly trigger, which journals a
	// dump marker of its own — so the journal holds 5 events.
	r.Journal(0).Note(KindBreaker, 1, trace.OpNone, 0, 0)
	r.Journal(0).Note(KindDrain, DrainDone, trace.OpNone, int64(time.Second), 3)

	var buf bytes.Buffer
	if err := r.WriteDump(&buf, "breaker-open", 0); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v\n%s", err, buf.String())
	}
	if d.Header.Reason != "breaker-open" || d.Header.Events != 5 {
		t.Fatalf("header = %+v", d.Header)
	}
	if p, ok := d.Header.Phases["retrieve"]; !ok || p.Count != 1 {
		t.Fatalf("header phases = %+v", d.Header.Phases)
	}
	if len(d.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(d.Events))
	}
	kinds := map[string]int{}
	for _, e := range d.Events {
		kinds[e.Kind]++
	}
	if kinds["slowspan"] != 2 || kinds["breaker"] != 1 || kinds["drain"] != 1 || kinds["dump"] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}

	var rep bytes.Buffer
	d.Report(&rep, 5)
	out := rep.String()
	for _, want := range []string{"reason=breaker-open", "top 2 slow spans", "retrieve", "breaker:open", "timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Headerless fragments still parse.
	frag, err := ReadDump(strings.NewReader(`{"t_ns":5,"kind":"shed","worker":0,"code":"accept","op":"none","dur_ns":0,"arg":9}`))
	if err != nil || len(frag.Events) != 1 || frag.Events[0].Kind != "shed" {
		t.Fatalf("fragment parse: %v %+v", err, frag)
	}
	var fragRep bytes.Buffer
	frag.Report(&fragRep, 0)
	if !strings.Contains(fragRep.String(), "no header") {
		t.Fatalf("fragment report:\n%s", fragRep.String())
	}
}

// The /metrics growth: windowed summaries appear as *_w60s series with
// p50/p95/p99 per phase, and react to a latency step within one bucket
// rotation.
func TestFlightRegisterExposesWindowedSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	r, clk := newTestRecorder(Config{})
	r.Register(reg)
	r.Register(reg) // idempotent

	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	// Healthy traffic, then scrape.
	for i := 0; i < 200; i++ {
		r.onSpan(trace.Span{Start: clk.now(), Dur: int64(100 * time.Microsecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0)})
		clk.advance(10 * time.Millisecond)
	}
	out := scrape()
	for _, want := range []string{
		"# TYPE qtls_phase_ns_w60s summary",
		"# HELP qtls_phase_ns_w60s ",
		`qtls_phase_ns_w60s{phase="retrieve",quantile="0.5"}`,
		`qtls_phase_ns_w60s{phase="retrieve",quantile="0.95"}`,
		`qtls_phase_ns_w60s{phase="retrieve",quantile="0.99"}`,
		`qtls_phase_ns_w60s{phase="pre",quantile="0.99"} 0`,
		`qtls_phase_ns_w60s_count{phase="retrieve"} 200`,
		`qtls_op_ns_w60s{class="asym",quantile="0.99"}`,
		"# TYPE qtls_phase_ns_w60s_max gauge",
		"# TYPE qtls_phase_ns_w60s_rate gauge",
		"qtls_shed_w60s_rate 0",
		"qtls_fault_w60s_rate 0",
		"qtls_deadline_w60s_rate 0",
		"qtls_flight_events_total 0",
		"qtls_flight_dumps_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	p99Before := windowedQuantile(t, out, "retrieve", "0.99")
	if p99Before > float64(200*time.Microsecond) {
		t.Fatalf("healthy windowed p99 = %v, want ~100µs", time.Duration(int64(p99Before)))
	}

	// Latency step: within one bucket rotation the windowed p99 follows.
	for i := 0; i < 200; i++ {
		r.onSpan(trace.Span{Start: clk.now(), Dur: int64(15 * time.Millisecond), Phase: trace.PhaseRetrieve, Op: trace.Op(0)})
		clk.advance(10 * time.Millisecond)
	}
	p99After := windowedQuantile(t, scrape(), "retrieve", "0.99")
	if p99After < float64(10*time.Millisecond) {
		t.Fatalf("windowed p99 = %v after step, did not react within one rotation",
			time.Duration(int64(p99After)))
	}
}

// windowedQuantile extracts one qtls_phase_ns_w60s quantile value from
// a scrape.
func windowedQuantile(t *testing.T, scrape, phase, q string) float64 {
	t.Helper()
	prefix := `qtls_phase_ns_w60s{phase="` + phase + `",quantile="` + q + `"} `
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("bad value %q: %v", v, err)
			}
			return f
		}
	}
	t.Fatalf("series %q not in scrape:\n%s", prefix, scrape)
	return 0
}
