// Package trace is the low-overhead span recorder behind the QTLS
// observability surface. It records the paper's four offload phases
// (§3.2: pre-processing, QAT response retrieval, async event
// notification, post-processing) plus poll batches as fixed-size span
// records in per-worker ring buffers, so the live stack can answer the
// question the whole design argues about — *where the time between
// submission and resumption goes* — without perturbing the event loop
// it is measuring.
//
// Design constraints, in order:
//
//   - Opt-out cheap: with the recorder disabled, the span path is one
//     atomic load and no allocations (guarded by a benchmark).
//   - No cross-worker contention: each worker owns a private ring
//     buffer; nothing on the record path is shared between workers.
//   - Race-detector clean: every slot word is an atomic.Int64 and each
//     slot carries a seqlock-style generation word, so a reader racing a
//     wrap-around writer detects the torn slot and skips it instead of
//     returning garbage (and `go test -race` stays quiet, which a
//     classic plain-field seqlock would not).
//
// Spans are fixed-size (five words) and written in place; the ring
// overwrites the oldest spans when full. Readers (the /debug/trace
// endpoint, CLI dumps) merge the per-worker rings and sort by start
// time.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies what a span measures. The first four values are the
// paper's four offload phases (§3.2, Fig. 4); PhasePoll spans cover one
// response-retrieval poll batch (tagged with what triggered it).
type Phase uint8

const (
	// PhasePre is pre-processing: entering the crypto call to the
	// request being submitted on the QAT request ring (the job pauses
	// right after).
	PhasePre Phase = iota
	// PhaseRetrieve is QAT response retrieval: submission to the
	// response callback running inside a poll.
	PhaseRetrieve
	// PhaseNotify is async event notification: response callback firing
	// the notification to the event loop picking the async handler up.
	PhaseNotify
	// PhasePost is post-processing: resuming the paused job to the
	// handler yielding control back to the event loop.
	PhasePost
	// PhasePoll is one response-retrieval poll batch (not an offload
	// phase; Tag says whether the heuristic, the timer or the failover
	// check triggered it, Arg carries the batch size).
	PhasePoll
	// PhaseShed is one admission-control rejection: the worker refused a
	// connection under overload, at accept time (TCP reset before TLS
	// bytes were spent) or at keepalive-reuse time (Connection: close
	// after the in-flight response). Arg carries the connection fd.
	PhaseShed
	// PhaseRecord is one post-handshake record-engine flush: sealed
	// records leaving the record data plane for a connection's socket
	// buffer, in order (Arg carries the wire bytes flushed).
	PhaseRecord

	// NumPhases is the number of defined phases.
	NumPhases
)

// String returns the short phase name used in metric labels.
func (p Phase) String() string {
	switch p {
	case PhasePre:
		return "pre"
	case PhaseRetrieve:
		return "retrieve"
	case PhaseNotify:
		return "notify"
	case PhasePost:
		return "post"
	case PhasePoll:
		return "poll"
	case PhaseShed:
		return "shed"
	case PhaseRecord:
		return "record"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// OffloadPhases returns the paper's four offload phases in §3.2 order.
func OffloadPhases() []Phase {
	return []Phase{PhasePre, PhaseRetrieve, PhaseNotify, PhasePost}
}

// PhaseSeriesName is the registry series (metric name + label) that
// carries the latency histogram of one phase, shared by the engine, the
// server worker and the figure generators.
func PhaseSeriesName(p Phase) string {
	return `qtls_phase_ns{phase="` + p.String() + `"}`
}

// Op classifies the crypto operation a span belongs to. Values mirror
// qat.OpType (rsa, ecdsa, ecdh, prf, cipher, sym); OpNone marks spans
// not tied to one operation (polls, loop work).
type Op uint8

// OpNone marks a span with no associated crypto operation.
const OpNone Op = 0xff

var opNames = [...]string{"rsa", "ecdsa", "ecdh", "prf", "cipher", "sym"}

// String returns the conventional op name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	if o == OpNone {
		return "none"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Tag qualifies a span: for PhasePoll it records what triggered the
// poll (the heuristic constraints, the polling timer, or the 5 ms
// failover timer); offload-phase spans may carry TagRetry or
// TagFallback when the op took a degradation path.
type Tag uint8

const (
	// TagNone is the default tag.
	TagNone Tag = iota
	// TagHeuristic marks a poll triggered by the heuristic constraints.
	TagHeuristic
	// TagTimer marks a poll triggered by the fixed polling interval.
	TagTimer
	// TagFailover marks a poll triggered by the failover timer.
	TagFailover
	// TagRetry marks an op span on a resubmission attempt.
	TagRetry
	// TagFallback marks an op span that degraded to software.
	TagFallback
	// TagKernelBypass marks a notification span delivered through the
	// application-level async queue (§3.4, no kernel involvement).
	TagKernelBypass
	// TagFD marks a notification span delivered through the notification
	// pipe and epoll (costing user/kernel switches).
	TagFD
	// TagDrain marks a span recorded while the worker was draining:
	// shutdown-initiated close-notify writes, and PhaseShed spans for
	// connections refused because the listener was already closed.
	TagDrain
)

// String returns the tag name.
func (t Tag) String() string {
	switch t {
	case TagNone:
		return "none"
	case TagHeuristic:
		return "heuristic"
	case TagTimer:
		return "timer"
	case TagFailover:
		return "failover"
	case TagRetry:
		return "retry"
	case TagFallback:
		return "fallback"
	case TagKernelBypass:
		return "kernel-bypass"
	case TagFD:
		return "fd"
	case TagDrain:
		return "drain"
	default:
		return fmt.Sprintf("tag(%d)", int(t))
	}
}

// Span is one decoded span record.
type Span struct {
	// Start is the span start, nanoseconds since the Unix epoch.
	Start int64
	// Dur is the span duration in nanoseconds.
	Dur int64
	// Phase says what was measured.
	Phase Phase
	// Op is the crypto operation class (OpNone when not applicable).
	Op Op
	// Tag qualifies the span (poll trigger, degradation path).
	Tag Tag
	// Worker is the recording worker's id.
	Worker uint8
	// Arg is phase-dependent: the connection fd for offload phases, the
	// batch size for poll spans.
	Arg int64
}

// MarshalJSON renders the span with symbolic phase/op/tag names, the
// shape served by the /debug/trace endpoint.
func (s Span) MarshalJSON() ([]byte, error) {
	return fmt.Appendf(nil,
		`{"start_ns":%d,"dur_ns":%d,"phase":%q,"op":%q,"tag":%q,"worker":%d,"arg":%d}`,
		s.Start, s.Dur, s.Phase, s.Op, s.Tag, s.Worker, s.Arg), nil
}

// Slot layout: [generation, start, dur, meta, arg]. The generation word
// is 2*index+1 while the slot is being written and 2*index+2 once
// stable, so a reader can both detect in-progress writes (odd) and
// verify the slot still holds the generation it started reading (equal
// before and after).
const slotWords = 5

// Buffer is one worker's private span ring. The zero/nil Buffer is
// inert: Active reports false and Record is a no-op, so callers hold a
// plain *Buffer and never nil-check.
type Buffer struct {
	rec    *Recorder
	worker uint8
	mask   uint64
	cursor atomic.Uint64
	slots  []atomic.Int64
}

// Active reports whether spans recorded now would be kept. Callers use
// it to skip timestamping entirely when tracing is off.
func (b *Buffer) Active() bool {
	return b != nil && b.rec.enabled.Load()
}

// Record stores one span. It is safe to call on a nil or disabled
// buffer (single branch + atomic load, no allocation — the property the
// package benchmark guards).
func (b *Buffer) Record(ph Phase, op Op, tag Tag, arg int64, start time.Time, dur time.Duration) {
	if !b.Active() {
		return
	}
	idx := b.cursor.Add(1) - 1
	base := int(idx&b.mask) * slotWords
	gen := int64(idx) * 2
	b.slots[base].Store(gen + 1)
	b.slots[base+1].Store(start.UnixNano())
	b.slots[base+2].Store(int64(dur))
	b.slots[base+3].Store(int64(ph) | int64(op)<<8 | int64(tag)<<16 | int64(b.worker)<<24)
	b.slots[base+4].Store(arg)
	b.slots[base].Store(gen + 2)
	if h := b.rec.hook.Load(); h != nil {
		// The span is handed over by value: a subscriber that does not
		// allocate keeps this path allocation-free (the package benchmark
		// guards the disabled path; flight's guards the subscribed one).
		(*h)(Span{
			Start:  start.UnixNano(),
			Dur:    int64(dur),
			Phase:  ph,
			Op:     op,
			Tag:    tag,
			Worker: b.worker,
			Arg:    arg,
		})
	}
}

// size returns the ring capacity in spans.
func (b *Buffer) size() uint64 { return b.mask + 1 }

// snapshot appends every readable span in the ring to out, oldest
// first. Torn slots (a writer raced the read) are skipped.
func (b *Buffer) snapshot(out []Span) []Span {
	if b == nil {
		return out
	}
	cur := b.cursor.Load()
	n := cur
	if n > b.size() {
		n = b.size()
	}
	for i := cur - n; i < cur; i++ {
		base := int(i&b.mask) * slotWords
		want := int64(i)*2 + 2
		if b.slots[base].Load() != want {
			continue // being written, or already overwritten by a wrap
		}
		s := Span{
			Start: b.slots[base+1].Load(),
			Dur:   b.slots[base+2].Load(),
		}
		meta := b.slots[base+3].Load()
		arg := b.slots[base+4].Load()
		if b.slots[base].Load() != want {
			continue // torn: a wrap-around writer got in between
		}
		s.Phase = Phase(meta & 0xff)
		s.Op = Op(meta >> 8 & 0xff)
		s.Tag = Tag(meta >> 16 & 0xff)
		s.Worker = uint8(meta >> 24 & 0xff)
		s.Arg = arg
		out = append(out, s)
	}
	return out
}

// Recorder owns the per-worker buffers and the global enable flag.
// Buffers are created lazily, one per worker id.
type Recorder struct {
	enabled   atomic.Bool
	perWorker uint64
	hook      atomic.Pointer[func(Span)]

	mu   sync.Mutex
	bufs map[int]*Buffer
}

// NewRecorder returns a disabled recorder whose per-worker rings hold
// perWorker spans (rounded up to a power of two; <= 0 selects 4096).
func NewRecorder(perWorker int) *Recorder {
	if perWorker <= 0 {
		perWorker = 4096
	}
	size := uint64(1)
	for size < uint64(perWorker) {
		size <<= 1
	}
	return &Recorder{perWorker: size, bufs: make(map[int]*Buffer)}
}

// SetEnabled turns span recording on or off. Disabling keeps already
// recorded spans readable.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether spans are currently being kept.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Subscribe installs fn as the span-commit hook: every span recorded
// while the recorder is enabled is also handed to fn, by value, on the
// recording goroutine. This is how the flight recorder observes the
// stack without re-instrumenting it. fn must be fast and must not
// allocate if the record path's zero-alloc property matters to the
// caller; it must not call back into the recorder. Pass nil to detach.
// Only one subscriber is supported; the latest call wins.
func (r *Recorder) Subscribe(fn func(Span)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.hook.Store(nil)
		return
	}
	r.hook.Store(&fn)
}

// Buffer returns worker's private ring, creating it on first use. A nil
// recorder returns a nil (inert) buffer, so wiring is optional
// end-to-end.
func (r *Recorder) Buffer(worker int) *Buffer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bufs[worker]
	if !ok {
		b = &Buffer{
			rec:    r,
			worker: uint8(worker),
			mask:   r.perWorker - 1,
			slots:  make([]atomic.Int64, r.perWorker*slotWords),
		}
		r.bufs[worker] = b
	}
	return b
}

// Count returns the total number of spans recorded across all buffers
// (including spans already overwritten by the rings).
func (r *Recorder) Count() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, b := range r.bufs {
		n += int64(b.cursor.Load())
	}
	return n
}

// Recent returns up to n spans, merged across workers and sorted by
// start time (oldest first). n <= 0 returns everything retained.
func (r *Recorder) Recent(n int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	bufs := make([]*Buffer, 0, len(r.bufs))
	for _, b := range r.bufs {
		bufs = append(bufs, b)
	}
	r.mu.Unlock()
	var spans []Span
	for _, b := range bufs {
		spans = b.snapshot(spans)
	}
	sortSpans(spans)
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	return spans
}

// sortSpans orders by start time (insertion-free pdqsort via sort.Slice
// would allocate a closure; spans are small, use a simple shellsort to
// keep the read path allocation-light).
func sortSpans(s []Span) {
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			v := s[i]
			j := i
			for ; j >= gap && s[j-gap].Start > v.Start; j -= gap {
				s[j] = s[j-gap]
			}
			s[j] = v
		}
	}
}
