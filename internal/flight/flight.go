package flight

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/trace"
)

// Each journal ring's capacity in events, the minimum spacing between
// automatic dumps (manual triggers — SIGQUIT, /debug/flight — ignore
// it), and the latency floor at or above which a completed span is
// journaled. A dump captures every event the journals retain.
const (
	journalSize  = 1024
	dumpCooldown = 30 * time.Second
	slowFloor    = time.Millisecond
)

// Config tunes a Recorder. The zero value selects the defaults.
type Config struct {
	// Buckets is the number of time buckets per window (default 12).
	Buckets int
	// Bucket is the width of one time bucket (default 5s; 12 × 5s gives
	// the default 60 s window and the `_w60s` series suffix).
	Bucket time.Duration
	// SLOP99 arms the windowed-p99 anomaly trigger over the four
	// offload phases (0 disables it).
	SLOP99 time.Duration
	// ShedRate arms the shed-rate anomaly trigger, in sheds/second
	// (0 disables it).
	ShedRate float64
	// Now overrides the recorder clock (tests); nil uses wall time.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Buckets <= 0 {
		c.Buckets = 12
	}
	if c.Bucket <= 0 {
		c.Bucket = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = nowNano
	}
	return c
}

// opClass maps a span op onto the window class index (0 = asym,
// 1 = sym, -1 = neither). Ordinals mirror the ops trace.Op names: rsa,
// ecdsa and ecdh are the asymmetric handshake ops, prf and cipher the
// symmetric ones; any other ordinal, OpNone included, is neither.
func opClass(op trace.Op) int {
	switch op {
	case 0, 1, 2:
		return 0
	case 3, 4:
		return 1
	}
	return -1
}

var classNames = [...]string{"asym", "sym"}

// slowSampleFloor is the minimum windowed sample count before the SLO
// trigger trusts a p99.
const sloSampleFloor = 8

// Recorder is the flight-recorder root: it owns the per-worker
// journals, the sliding windows, the anomaly triggers and the dump
// surface. A non-nil *Recorder is on; a nil one is inert everywhere, so
// wiring is optional end-to-end (the same contract as trace.Recorder).
type Recorder struct {
	cfg Config

	// journals is indexed by worker id (0..255) plus SystemWorker;
	// slots fill lazily and reads are lock-free (the trace hook routes
	// by span worker on the hot path).
	journals [SystemWorker + 1]atomic.Pointer[Journal]
	mu       sync.Mutex // guards journal creation and dump serialization

	phaseWin    [trace.NumPhases]*Window
	classWin    [len(classNames)]*Window
	shedWin     *Window
	faultWin    *Window
	deadlineWin *Window

	lastCheck  atomic.Int64
	lastDump   atomic.Int64
	dumps      atomic.Int64
	sink       atomic.Pointer[func(reason string, events []Event)]
	registered atomic.Bool
}

// New builds a recorder. AttachTrace feeds it spans, and Register grows
// the /metrics exposition.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{cfg: cfg}
	for i := range r.phaseWin {
		r.phaseWin[i] = NewWindow(cfg.Buckets, cfg.Bucket)
	}
	for i := range r.classWin {
		r.classWin[i] = NewWindow(cfg.Buckets, cfg.Bucket)
	}
	r.shedWin = NewWindow(cfg.Buckets, cfg.Bucket)
	r.faultWin = NewWindow(cfg.Buckets, cfg.Bucket)
	r.deadlineWin = NewWindow(cfg.Buckets, cfg.Bucket)
	return r
}

// now reads the recorder clock.
func (r *Recorder) now() int64 { return r.cfg.Now() }

// Journal returns worker's event ring, creating it on first use. A nil
// recorder returns a nil (inert) journal.
func (r *Recorder) Journal(worker int) *Journal {
	if r == nil {
		return nil
	}
	if worker < 0 || worker > SystemWorker {
		worker = SystemWorker
	}
	if j := r.journals[worker].Load(); j != nil {
		return j
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j := r.journals[worker].Load(); j != nil {
		return j
	}
	j := &Journal{
		rec:     r,
		worker:  uint16(worker),
		data:    trace.NewRing(journalSize),
		control: trace.NewRing(journalSize),
	}
	r.journals[worker].Store(j)
	return j
}

// pollCauses are the poll triggers the lifetime batch-size histograms
// are kept by (qtls_poll_batch{cause}).
var pollCauses = [...]trace.Tag{trace.TagHeuristic, trace.TagTimer, trace.TagFailover, trace.TagRetry}

// AttachTrace installs the one span-commit subscriber on tr: it turns
// every committed span into each view derived from it. Those are reg's
// lifetime qtls_phase_ns{phase} histograms of the four offload phases and
// its qtls_poll_batch{cause} histograms (a poll span's Arg is its batch
// size), then r's phase and op-class windows and its slow-span journal.
// The series are registered even when tr is nil, so /metrics lists them
// from the first scrape; r may be nil.
func AttachTrace(tr *trace.Recorder, reg *metrics.Registry, r *Recorder) {
	var phase [trace.NumPhases]*metrics.Histogram
	for _, p := range trace.OffloadPhases() {
		phase[p] = reg.Histogram(trace.PhaseSeriesName(p))
	}
	var batch [trace.TagRetry + 1]*metrics.Histogram
	for _, tag := range pollCauses {
		batch[tag] = reg.Histogram(`qtls_poll_batch{cause="` + tag.String() + `"}`)
	}
	tr.Subscribe(func(s trace.Span) {
		if int(s.Phase) < len(phase) && phase[s.Phase] != nil {
			phase[s.Phase].Observe(float64(s.Dur))
		} else if s.Phase == trace.PhasePoll && int(s.Tag) < len(batch) && batch[s.Tag] != nil {
			batch[s.Tag].Observe(float64(s.Arg))
		}
		if r != nil {
			r.onSpan(s)
		}
	})
}

// onSpan feeds one committed span to the phase/class windows, and
// journals it if it is at or above the slow floor. It must not allocate:
// windows are pre-built, journals are created at most once per worker,
// and the span arrives by value.
func (r *Recorder) onSpan(s trace.Span) {
	end := s.Start + s.Dur
	if int(s.Phase) < len(r.phaseWin) {
		r.phaseWin[s.Phase].Observe(float64(s.Dur), end)
	}
	if c := opClass(s.Op); c >= 0 {
		r.classWin[c].Observe(float64(s.Dur), end)
	}
	if s.Dur >= int64(slowFloor) {
		r.Journal(int(s.Worker)).noteAt(end, KindSlowSpan, uint8(s.Phase), s.Op, s.Dur, s.Arg)
	}
}

// onEvent fans a freshly journaled event into the counter windows and
// the event-driven triggers. Runs on the journaling goroutine.
func (r *Recorder) onEvent(k Kind, code uint8, tNs int64) {
	switch k {
	case KindShed:
		r.shedWin.Observe(1, tNs)
	case KindFault:
		r.faultWin.Observe(1, tNs)
	case KindDeadline:
		r.deadlineWin.Observe(1, tNs)
	case KindBreaker:
		if code == 1 { // mirrors qat.BreakerOpen
			r.trigger("breaker-open", tNs)
		}
	}
}

// Events returns up to n journaled events, merged across workers and
// sorted by time (oldest first). n <= 0 returns everything retained.
func (r *Recorder) Events(n int) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.journals {
		if j := r.journals[i].Load(); j != nil {
			out = j.snapshot(out)
		}
	}
	slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// SetDumpSink installs the dump consumer (typically "write a JSONL
// file"). The sink runs synchronously on whichever goroutine tripped
// the trigger — keep it cheap or hand off. Pass nil to detach.
func (r *Recorder) SetDumpSink(fn func(reason string, events []Event)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&fn)
}

// Check evaluates the windowed anomaly conditions (SLO p99 over the
// offload phases, shed rate). It is rate-limited internally to twice
// per bucket, so event loops call it every iteration for free.
func (r *Recorder) Check() {
	if r == nil {
		return
	}
	nowNs := r.now()
	last := r.lastCheck.Load()
	if nowNs-last < int64(r.cfg.Bucket)/2 {
		return
	}
	if !r.lastCheck.CompareAndSwap(last, nowNs) {
		return
	}
	if slo := int64(r.cfg.SLOP99); slo > 0 {
		for _, p := range trace.OffloadPhases() {
			if s := r.phaseWin[p].Snapshot(nowNs); s.Count >= sloSampleFloor && s.P99 > float64(slo) {
				r.trigger("slo-p99", nowNs)
				return
			}
		}
	}
	if sr := r.cfg.ShedRate; sr > 0 {
		if s := r.shedWin.Snapshot(nowNs); s.Rate > sr {
			r.trigger("shed-rate", nowNs)
		}
	}
}

// Trigger fires a dump unconditionally (manual and signal-driven
// paths; automatic triggers go through the cooldown-limited internal
// path instead).
func (r *Recorder) Trigger(reason string) {
	if r == nil {
		return
	}
	r.dump(reason, r.now())
}

// trigger fires a dump unless one fired within the cooldown.
func (r *Recorder) trigger(reason string, nowNs int64) {
	last := r.lastDump.Load()
	if last != 0 && nowNs-last < int64(dumpCooldown) {
		return
	}
	if !r.lastDump.CompareAndSwap(last, nowNs) {
		return
	}
	r.dump(reason, nowNs)
}

// dump snapshots the journals, marks the dump in the system journal and
// hands the events to the sink.
func (r *Recorder) dump(reason string, nowNs int64) {
	events := r.Events(0)
	r.dumps.Add(1)
	r.Journal(SystemWorker).noteAt(nowNs, KindDump, DumpReasonCode(reason), trace.OpNone, 0, int64(len(events)))
	if fn := r.sink.Load(); fn != nil {
		(*fn)(reason, events)
	}
}

// suffix is the windowed-series name suffix ("w60s" for the default
// 12 × 5 s configuration).
func (r *Recorder) suffix() string {
	return fmt.Sprintf("w%ds", int64(r.phaseWin[0].Span()/time.Second))
}

// Register grows reg's /metrics exposition with the recorder's
// windowed series (qtls_phase_ns_<sfx>, qtls_op_ns_<sfx>, the
// shed/fault/deadline rates and the flight meta counters). Existing
// series names are untouched. Register is idempotent per recorder.
func (r *Recorder) Register(reg *metrics.Registry) {
	if r == nil || reg == nil || !r.registered.CompareAndSwap(false, true) {
		return
	}
	reg.AddExposition(r.writeProm)
}

// writeProm renders the windowed series in Prometheus text format.
func (r *Recorder) writeProm(w io.Writer) error {
	nowNs := r.now()
	sfx := r.suffix()

	phaseNames := make([]string, trace.NumPhases)
	for p := range phaseNames {
		phaseNames[p] = trace.Phase(p).String()
	}
	if err := writeWindowFamily(w, nowNs, "qtls_phase_ns_"+sfx,
		fmt.Sprintf("Sliding-window (%s) offload-phase latency summary in nanoseconds.", sfx),
		"phase", phaseNames, r.phaseWin[:]); err != nil {
		return err
	}
	if err := writeWindowFamily(w, nowNs, "qtls_op_ns_"+sfx,
		fmt.Sprintf("Sliding-window (%s) op-class latency summary in nanoseconds.", sfx),
		"class", classNames[:], r.classWin[:]); err != nil {
		return err
	}

	for _, cw := range []struct {
		name string
		help string
		win  *Window
	}{
		{"qtls_shed_" + sfx, "Admission-control rejections over the sliding window.", r.shedWin},
		{"qtls_fault_" + sfx, "Injected faults over the sliding window.", r.faultWin},
		{"qtls_deadline_" + sfx, "Connection-deadline expiries over the sliding window.", r.deadlineWin},
	} {
		s := cw.win.Snapshot(nowNs)
		if _, err := fmt.Fprintf(w,
			"# HELP %[1]s_rate %[2]s\n# TYPE %[1]s_rate gauge\n%[1]s_rate %[3]g\n# TYPE %[1]s_count gauge\n%[1]s_count %[4]d\n",
			cw.name, cw.help, s.Rate, s.Count); err != nil {
			return err
		}
	}

	var journaled int64
	for i := range r.journals {
		if j := r.journals[i].Load(); j != nil {
			journaled += j.journaled()
		}
	}
	_, err := fmt.Fprintf(w,
		"# HELP qtls_flight_events_total Events journaled by the flight recorder (including overwritten ones).\n"+
			"# TYPE qtls_flight_events_total counter\nqtls_flight_events_total %d\n"+
			"# HELP qtls_flight_dumps_total Flight-recorder dump triggers fired.\n"+
			"# TYPE qtls_flight_dumps_total counter\nqtls_flight_dumps_total %d\n",
		journaled, r.dumps.Load())
	return err
}

// writeWindowFamily renders one windowed summary family, one series
// per window labelled key="names[i]": each series through
// metrics.WriteSummary, then the window-only _max and _rate companion
// gauge families.
func writeWindowFamily(w io.Writer, nowNs int64, fam, help, key string, names []string, wins []*Window) error {
	var err error
	emitf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	snaps := make([]WindowSnapshot, len(wins))
	labels := make([]string, len(wins))
	emitf("# HELP %s %s\n# TYPE %s summary\n", fam, help, fam)
	for i, win := range wins {
		snaps[i], labels[i] = win.Snapshot(nowNs), key+`="`+names[i]+`"`
		if err == nil {
			err = metrics.WriteSummary(w, fam, labels[i], snaps[i].Snapshot)
		}
	}
	emitf("# TYPE %s_max gauge\n", fam)
	for i, s := range snaps {
		emitf("%s_max{%s} %g\n", fam, labels[i], s.Max)
	}
	emitf("# TYPE %s_rate gauge\n", fam)
	for i, s := range snaps {
		emitf("%s_rate{%s} %g\n", fam, labels[i], s.Rate)
	}
	return err
}
