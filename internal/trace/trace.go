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
//   - Race-detector clean: spans live in a Ring, whose every slot word
//     is an atomic.Int64 and whose slots carry a seqlock-style generation
//     word, so a reader racing a wrap-around writer detects the torn slot
//     and skips it instead of returning garbage (and `go test -race`
//     stays quiet, which a classic plain-field seqlock would not).
//
// Spans are fixed-size (five words) and written in place; the ring
// overwrites the oldest spans when full. Readers (the /debug/trace
// endpoint, CLI dumps) merge the per-worker rings and sort by start
// time.
package trace

import (
	"cmp"
	"fmt"
	"slices"
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
// qat.OpType (rsa, ecdsa, ecdh, prf, cipher); OpNone marks spans
// not tied to one operation (polls, loop work).
type Op uint8

// OpNone marks a span with no associated crypto operation.
const OpNone Op = 0xff

var opNames = [...]string{"rsa", "ecdsa", "ecdh", "prf", "cipher"}

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

// Ring is a seqlock ring of five-word slots, overwriting the oldest slot
// when full: a trace.Buffer's spans and each of a flight journal's two
// event rings. A writer claims its slot with one atomic add, so several
// may put at once, and any goroutine may read. Every word is an
// atomic.Int64, and a slot's first word is its generation:
// 2*index+1 while the slot is being written and 2*index+2 once stable.
// A reader therefore detects both an in-progress write (odd) and a
// wrap-around overwrite (a different generation before and after its
// read) and skips the slot instead of returning a torn one.
type Ring struct {
	mask   uint64
	cursor atomic.Uint64
	slots  []atomic.Int64
}

// NewRing returns a ring of at least size slots (rounded up to a power of
// two).
func NewRing(size int) *Ring {
	n := uint64(1)
	for n < uint64(size) {
		n <<= 1
	}
	return &Ring{mask: n - 1, slots: make([]atomic.Int64, n*5)}
}

// Put writes one slot's four payload words.
func (r *Ring) Put(w1, w2, w3, w4 int64) {
	idx := r.cursor.Add(1) - 1
	base := int(idx&r.mask) * 5
	gen := int64(idx) * 2
	r.slots[base].Store(gen + 1)
	r.slots[base+1].Store(w1)
	r.slots[base+2].Store(w2)
	r.slots[base+3].Store(w3)
	r.slots[base+4].Store(w4)
	r.slots[base].Store(gen + 2)
}

// Written returns how many slots were ever put (overwritten ones
// included).
func (r *Ring) Written() int64 { return int64(r.cursor.Load()) }

// Each calls fn with the payload words of every readable slot, oldest
// first.
func (r *Ring) Each(fn func(w1, w2, w3, w4 int64)) {
	cur := r.cursor.Load()
	n := min(cur, r.mask+1)
	for i := cur - n; i < cur; i++ {
		base := int(i&r.mask) * 5
		want := int64(i)*2 + 2
		if r.slots[base].Load() != want {
			continue // being written, or already overwritten by a wrap
		}
		w1, w2, w3, w4 := r.slots[base+1].Load(), r.slots[base+2].Load(), r.slots[base+3].Load(), r.slots[base+4].Load()
		if r.slots[base].Load() != want {
			continue // torn: a wrap-around writer got in between
		}
		fn(w1, w2, w3, w4)
	}
}

// Buffer is one worker's private span ring. The zero/nil Buffer is
// inert: Active reports false and Record is a no-op, so callers hold a
// plain *Buffer and never nil-check.
type Buffer struct {
	rec    *Recorder
	worker uint8
	ring   *Ring
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
	b.ring.Put(start.UnixNano(), int64(dur), int64(ph)|int64(op)<<8|int64(tag)<<16|int64(b.worker)<<24, arg)
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

// snapshot appends every readable span in the ring to out, oldest
// first.
func (b *Buffer) snapshot(out []Span) []Span {
	b.ring.Each(func(start, dur, meta, arg int64) {
		out = append(out, Span{
			Start:  start,
			Dur:    dur,
			Phase:  Phase(meta & 0xff),
			Op:     Op(meta >> 8 & 0xff),
			Tag:    Tag(meta >> 16 & 0xff),
			Worker: uint8(meta >> 24 & 0xff),
			Arg:    arg,
		})
	})
	return out
}

// Recorder owns the per-worker buffers and the global enable flag.
// Buffers are created lazily, one per worker id.
type Recorder struct {
	enabled   atomic.Bool
	perWorker int
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
	return &Recorder{perWorker: perWorker, bufs: make(map[int]*Buffer)}
}

// SetEnabled turns span recording on or off. Disabling keeps already
// recorded spans readable.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

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
		b = &Buffer{rec: r, worker: uint8(worker), ring: NewRing(r.perWorker)}
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
		n += b.ring.Written()
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
	slices.SortStableFunc(spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	return spans
}
