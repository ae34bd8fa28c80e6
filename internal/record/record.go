// Package record is the post-handshake record-path data plane: a
// kTLS-style symmetric-crypto offload engine that takes over a TLS
// connection's write direction once the handshake (and its asymmetric
// offload story, the paper's subject) has finished.
//
// The hand-off mirrors kernel TLS: the handshake stays in
// internal/minitls; the negotiated keys are exported
// (minitls.Conn.ExportWriteKeys), the conn's writer is detached, and a
// Stream owns the direction from then on — sequence numbers continue
// exactly where the handshake left them, so a plain software peer keeps
// reading the stream and the close-notify alert arrives through the
// same sealed channel.
//
// Records are sealed either on the worker core (software) or on a QAT
// symmetric instance (qat.OpSym, byte-calibrated service times), chosen
// per record by the shared offload.RecordPolicy. Offloaded seals
// complete out of order across records of one burst; the Stream's FIFO
// holds completed wire records until every earlier record is done, so
// the sink always observes them in sequence order. Records are sealed
// straight into minitls's pooled wire buffers (minitls.WireBuf has the
// ownership rules); the Work closure reads the caller's payload in place
// (the sendfile-style contract: callers keep payloads stable until the
// stream drains).
//
// Degradation reuses the familiar ladder: ring-full submissions and those
// the health manager refuses fall back to software immediately; an
// offload that fails in flight (endpoint reset) is re-sealed in software
// at flush time under its original sequence number, so faults cost
// latency, never correctness.
//
// Like the handshake engine, a record Engine is owned by one event-loop
// goroutine: Submit happens on it and completions are drained by Poll
// on it. The only cross-goroutine work is the seal itself, on the
// device's engine goroutines.
package record

import (
	"crypto/rand"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"qtls/internal/flight"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// ErrStreamClosed is returned by writes after CloseNotify or Cancel.
var ErrStreamClosed = errors.New("record: stream closed")

// Sink receives completed wire records, in sequence order. The slice is
// only valid during the call: its wire buffer returns to the pool after.
// Implementations append to a socket buffer (the server's netpoll conn).
type Sink interface {
	WriteRecord(rec []byte) error
}

// Config configures a record Engine.
type Config struct {
	// Instance is the QAT crypto instance symmetric ops are submitted
	// to. nil builds a software-only engine (RecordSoftware behavior
	// regardless of Policy).
	Instance *qat.Instance
	// Policy is the per-record offload decision (software / offload /
	// offload-above-size-threshold).
	Policy offload.RecordPolicy
	// Lifecycle, when set, is the health manager of the instance's pool:
	// the instance is watched like any handshake instance of its device
	// (its trips count toward the device's density), and while its
	// circuit is open or its device quarantined, records are sealed in
	// software instead of submitted.
	Lifecycle *qat.Lifecycle
	// Rand supplies record IVs (default crypto/rand; it must be safe
	// for concurrent use — offloaded seals run on engine goroutines).
	Rand io.Reader
	// Trace, when set, records PhaseRecord flush spans.
	Trace *trace.Buffer
	// Flight, when set, receives black-box events: the instance's circuit
	// transitions and every offload-to-software fallback with its cause
	// (ring-full, refused by the health manager, in-flight failure).
	Flight *flight.Journal
}

// Stats are the engine's cumulative counters. Stats may be called from
// any goroutine: a scrape reads them (qtls_record_bytes,
// qtls_record_offload_ops, qtls_record_sw_ops) on whichever worker serves
// it.
type Stats struct {
	// Records counts wire records delivered to sinks.
	Records int64
	// OffloadOps counts records sealed on the accelerator.
	OffloadOps int64
	// SoftwareOps counts records sealed on the worker core: policy
	// decisions, sub-threshold records, alerts, and fallback re-seals
	// (which also count as Fallbacks).
	SoftwareOps int64
	// Fallbacks counts offloads that degraded to software: ring-full,
	// breaker-open, or a failed in-flight op re-sealed at flush time.
	Fallbacks int64
	// RingFull counts submissions rejected by a full request ring (a
	// subset of Fallbacks).
	RingFull int64
	// Bytes counts plaintext payload bytes sealed.
	Bytes int64
}

// Engine drives the offloaded record data plane over one QAT instance.
// One event-loop goroutine owns it: NewStream, Stream writes and Poll
// must all run there.
type Engine struct {
	inst *qat.Instance
	pol  offload.RecordPolicy
	lc   *qat.Lifecycle // nil when health management is off
	rnd  io.Reader
	tr   *trace.Buffer
	fl   *flight.Journal

	inflight int
	ready    []*Stream // streams with newly completed jobs since last flush

	// The Stats counters: written on the owner goroutine, read from any.
	records, offloadOps, softwareOps, fallbacks, ringFull, bytes atomic.Int64
}

// New builds a record engine.
func New(cfg Config) *Engine {
	e := &Engine{
		inst: cfg.Instance,
		pol:  cfg.Policy.WithDefaults(),
		rnd:  cfg.Rand,
		tr:   cfg.Trace,
	}
	if e.rnd == nil {
		e.rnd = rand.Reader
	}
	e.fl = cfg.Flight
	if cfg.Lifecycle != nil && e.inst != nil {
		e.lc = cfg.Lifecycle
		// Journal the instance's circuit transitions; Arg -1 marks the
		// record instance (handshake-engine instances carry their index
		// there).
		e.lc.Watch(e.inst, func(from, to qat.BreakerState) {
			e.fl.Note(flight.KindBreaker, uint8(to), trace.Op(qat.OpSym), int64(from), -1)
		})
	}
	return e
}

// Inflight returns the number of offloaded seals awaiting completion.
func (e *Engine) Inflight() int { return e.inflight }

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Records:     e.records.Load(),
		OffloadOps:  e.offloadOps.Load(),
		SoftwareOps: e.softwareOps.Load(),
		Fallbacks:   e.fallbacks.Load(),
		RingFull:    e.ringFull.Load(),
		Bytes:       e.bytes.Load(),
	}
}

// Policy returns the engine's resolved record policy.
func (e *Engine) Policy() offload.RecordPolicy { return e.pol }

// job is one record moving through a stream: sealed into buf either
// inline (software) or by an engine goroutine (offload).
type job struct {
	s         *Stream
	seq       uint64
	typ       uint8
	payload   []byte
	buf       *minitls.WireBuf // complete wire record once done
	submitted bool             // accepted by the device; its callback completes it
	done      bool
	failed    bool // offload failed in flight; re-seal in software at flush
}

// Stream is the offloaded write path of one connection, created from
// keys exported by a completed handshake. Writes enqueue sealed records;
// the sink receives them in order as seals complete (immediately for
// software seals, after Poll for offloaded ones).
type Stream struct {
	e     *Engine
	codec minitls.RecordCodec
	sink  Sink
	seq   uint64
	q     []*job // submission order; head flushes when done
	err   error  // sticky seal/sink error
	// closed: CloseNotify queued; canceled: owner gave up, completions
	// are dropped without sink writes.
	closed   bool
	canceled bool
	queued   bool // in e.ready
}

// NewStream builds a stream from exported key material. The sequence
// numbers continue from km.Seq — the continuity that keeps the peer's
// software record layer in sync across the hand-off.
func (e *Engine) NewStream(km minitls.KeyMaterial, sink Sink) (*Stream, error) {
	codec, err := minitls.NewRecordCodec(km)
	if err != nil {
		return nil, err
	}
	return &Stream{e: e, codec: codec, sink: sink, seq: km.Seq}, nil
}

// Pending returns the number of records not yet delivered to the sink.
func (s *Stream) Pending() int { return len(s.q) }

// Err returns the stream's sticky error (a failed software seal or sink
// write), if any.
func (s *Stream) Err() error { return s.err }

// Closed reports whether CloseNotify has been queued.
func (s *Stream) Closed() bool { return s.closed }

// Write seals p as application-data records, fragmenting at
// minitls.MaxPlaintext. The caller must keep p stable until Pending
// returns 0 — record protection reads it in place (zero-copy). Offload
// eligibility is decided per fragment; a multi-fragment burst submits
// with one doorbell (qat.SubmitBatch).
func (s *Stream) Write(p []byte) error {
	if s.closed || s.canceled {
		return ErrStreamClosed
	}
	if s.err != nil {
		return s.err
	}
	// Fragment and classify.
	first := len(s.q)
	var reqs []qat.Request
	var offloadable []*job
	for off := 0; off < len(p); off += minitls.MaxPlaintext {
		end := min(off+minitls.MaxPlaintext, len(p))
		j := &job{s: s, seq: s.seq, typ: minitls.RecordTypeApplicationData, payload: p[off:end]}
		s.seq++
		s.q = append(s.q, j)
		if s.e.shouldOffload(len(j.payload)) {
			reqs = append(reqs, s.e.requestFor(j))
			offloadable = append(offloadable, j)
		}
	}
	// One doorbell for the burst; the unaccepted tail (ring full) and
	// the never-offloadable fragments seal in software below.
	if len(reqs) > 0 {
		accepted, err := s.e.inst.SubmitBatch(reqs)
		if err != nil {
			s.e.submitFailed(err, len(reqs)-accepted)
		}
		for _, j := range offloadable[:accepted] {
			j.submitted = true
		}
		s.e.inflight += accepted
		s.e.offloadOps.Add(int64(accepted))
		if tail := len(offloadable) - accepted; tail > 0 {
			s.e.fallbacks.Add(int64(tail))
			s.e.fl.Note(flight.KindFallback, flight.FallbackRingFull, trace.Op(qat.OpSym), 0, int64(tail))
		}
	}
	for _, j := range s.q[first:] {
		if !j.submitted {
			s.e.sealSoftware(j)
		}
	}
	return s.flush()
}

// WriteRecord seals one record of the given type (single-record writes
// and tests; payload must fit one fragment).
func (s *Stream) WriteRecord(typ uint8, payload []byte) error {
	if s.closed || s.canceled {
		return ErrStreamClosed
	}
	if s.err != nil {
		return s.err
	}
	if len(payload) > minitls.MaxPlaintext {
		return errors.New("record: WriteRecord payload exceeds one fragment")
	}
	j := &job{s: s, seq: s.seq, typ: typ, payload: payload}
	s.seq++
	if s.e.shouldOffload(len(payload)) && typ == minitls.RecordTypeApplicationData {
		if err := s.e.inst.Submit(s.e.requestFor(j)); err == nil {
			s.e.inflight++
			s.e.offloadOps.Add(1)
			s.q = append(s.q, j)
			return s.flush()
		} else if s.e.submitFailed(err, 1) {
			s.e.fallbacks.Add(1)
			s.e.fl.Note(flight.KindFallback, flight.FallbackRingFull, trace.Op(qat.OpSym), 0, 1)
		}
	}
	s.e.sealSoftware(j)
	s.q = append(s.q, j)
	return s.flush()
}

// CloseNotify queues the close-notify alert through the stream — the
// sealed goodbye a detached minitls.Conn can no longer send itself. The
// alert is tiny and ordering-critical, so it always seals in software.
func (s *Stream) CloseNotify() error {
	if s.closed || s.canceled {
		return nil
	}
	j := &job{s: s, seq: s.seq, typ: minitls.RecordTypeAlert, payload: minitls.AlertCloseNotify()}
	s.seq++
	s.e.sealSoftware(j)
	s.q = append(s.q, j)
	s.closed = true
	return s.flush()
}

// Cancel abandons the stream: queued records and in-flight completions
// are dropped without sink writes (their wire buffers go to the garbage
// collector, not back to the pool). For teardown paths (closeConn);
// inflight accounting stays consistent.
func (s *Stream) Cancel() {
	s.canceled = true
	s.q = nil
}

// shouldOffload is the per-record submission decision: an instance is
// wired, the policy says offload at this size, and the health manager
// admits. An admitted submission ends in one result, or in submitFailed.
func (e *Engine) shouldOffload(bytes int) bool {
	if e.inst == nil || !e.pol.Offload(bytes) {
		return false
	}
	if e.lc != nil && !e.lc.Admit(e.inst) {
		// Routed to software while the circuit is open or the device
		// quarantined; the black box sees the routing decision, not just
		// the trip.
		e.fl.Note(flight.KindFallback, flight.FallbackBreaker, trace.Op(qat.OpSym), 0, 0)
		return false
	}
	return true
}

// submitFailed settles n admitted submissions the device refused and
// reports whether the ring was full. Ring-full is backpressure, so the
// admissions are handed back; any other refusal (an endpoint reset) is one
// failed outcome.
func (e *Engine) submitFailed(err error, n int) (ringFull bool) {
	ringFull = errors.Is(err, qat.ErrRingFull)
	if ringFull {
		e.ringFull.Add(1)
	} else {
		e.result(false)
		n--
	}
	if e.lc != nil {
		for ; n > 0; n-- {
			e.lc.Refused(e.inst)
		}
	}
	return ringFull
}

// result feeds one outcome to the health manager.
func (e *Engine) result(ok bool) {
	if e.lc != nil {
		e.lc.Result(e.inst, ok)
	}
}

// requestFor builds the OpSym request sealing j into a wire buffer of
// its own on an engine goroutine. The callback (run inside Poll, on the
// owner goroutine) lands the result on the job.
func (e *Engine) requestFor(j *job) qat.Request {
	return qat.Request{
		Op:    qat.OpSym,
		Bytes: len(j.payload),
		Work: func() (any, error) {
			w, err := j.s.codec.Seal(j.seq, j.typ, j.payload, e.rnd)
			if err != nil {
				return nil, err
			}
			return w, nil
		},
		Callback: func(r qat.Response) {
			e.inflight--
			e.result(r.Err == nil)
			buf, ok := r.Result.(*minitls.WireBuf)
			if r.Err != nil || !ok {
				// Failed in flight (endpoint reset, drop-timeout path):
				// re-seal in software at flush time, same sequence number.
				j.failed = true
				e.fallbacks.Add(1)
				e.fl.Note(flight.KindFallback, flight.FallbackError, trace.Op(qat.OpSym), 0, int64(j.seq))
			} else {
				j.buf = buf
			}
			j.done = true
			if j.s.canceled {
				return
			}
			if !j.s.queued {
				j.s.queued = true
				e.ready = append(e.ready, j.s)
			}
		},
	}
}

// OpenAsync submits the open (decrypt + verify) of one wire record —
// header included — to the accelerator, invoking cb from a later Poll
// with the inner type and payload. When no instance is wired, the
// policy declines the body size, or the ring is full, the open runs
// inline in software and cb is invoked before OpenAsync returns. An
// offloaded open that fails in flight is retried in software at
// completion, so cb always reports the codec's verdict, never the
// device's. The record is decrypted in place: rec belongs to the engine
// until cb runs, and the payload passed to cb aliases it.
//
// This is the receive-side counterpart of Stream: the live server keeps
// its receive path in software (client→server records are far below any
// sensible threshold), so decrypt offload is exercised through this
// seam rather than a conn mode switch.
func (e *Engine) OpenAsync(codec minitls.RecordCodec, seq uint64, rec []byte, cb func(typ uint8, payload []byte, err error)) {
	open := func() (uint8, []byte, error) {
		if len(rec) < minitls.RecordHeaderLen {
			return 0, nil, errors.New("record: short wire record")
		}
		return codec.Open(seq, rec[0], rec[minitls.RecordHeaderLen:])
	}
	if e.shouldOffload(len(rec) - minitls.RecordHeaderLen) {
		type opened struct {
			typ     uint8
			payload []byte
		}
		err := e.inst.Submit(qat.Request{
			Op:    qat.OpSym,
			Bytes: len(rec) - minitls.RecordHeaderLen,
			Work: func() (any, error) {
				typ, payload, err := open()
				if err != nil {
					return nil, err
				}
				return opened{typ, payload}, nil
			},
			Callback: func(r qat.Response) {
				e.inflight--
				e.result(r.Err == nil)
				if res, ok := r.Result.(opened); ok && r.Err == nil {
					cb(res.typ, res.payload, nil)
					return
				}
				// Device fault, not a codec verdict: re-open in software.
				e.fallbacks.Add(1)
				e.fl.Note(flight.KindFallback, flight.FallbackError, trace.Op(qat.OpSym), 0, int64(seq))
				typ, payload, err := open()
				cb(typ, payload, err)
			},
		})
		if err == nil {
			e.inflight++
			e.offloadOps.Add(1)
			return
		}
		cause := uint8(flight.FallbackError)
		if e.submitFailed(err, 1) {
			cause = flight.FallbackRingFull
		}
		e.fallbacks.Add(1)
		e.fl.Note(flight.KindFallback, cause, trace.Op(qat.OpSym), 0, int64(seq))
	}
	e.softwareOps.Add(1)
	typ, payload, err := open()
	cb(typ, payload, err)
}

// sealSoftware seals j inline on the owner goroutine.
func (e *Engine) sealSoftware(j *job) {
	var err error
	if j.buf, err = j.s.codec.Seal(j.seq, j.typ, j.payload, e.rnd); err != nil && j.s.err == nil {
		j.s.err = err
	}
	j.done = true
	j.failed = false
	e.softwareOps.Add(1)
}

// Poll drains device completions and flushes every stream that gained
// one, in order. Returns the number of completions retrieved. Call it
// from the owner goroutine whenever Inflight() > 0.
func (e *Engine) Poll() int {
	if e.inst == nil {
		return 0
	}
	n := e.inst.Poll(0)
	if len(e.ready) > 0 {
		streams := e.ready
		e.ready = e.ready[:0]
		for _, s := range streams {
			s.queued = false
			if !s.canceled {
				s.flush() // sticky error surfaces via Stream.Err
			}
		}
	}
	return n
}

// flush delivers the done prefix of the stream's queue to the sink, in
// sequence order, releasing buffers as they land. Failed offloads are
// re-sealed in software here — on the owner goroutine, under their
// original sequence numbers — so a device fault never reorders or drops
// a record.
func (s *Stream) flush() error {
	if len(s.q) == 0 {
		return s.err
	}
	var start time.Time
	tracing := s.e.tr.Active()
	if tracing {
		start = time.Now()
	}
	var wire int64
	n := 0 // records leaving the queue
	for ; n < len(s.q) && s.q[n].done; n++ {
		j := s.q[n]
		if j.failed {
			s.e.sealSoftware(j)
		}
		if j.buf == nil {
			continue // seal failed; s.err is set
		}
		if s.err == nil {
			if err := s.sink.WriteRecord(j.buf.Bytes()); err != nil {
				s.err = err
			} else {
				wire += int64(len(j.buf.Bytes()))
				s.e.records.Add(1)
				s.e.bytes.Add(int64(len(j.payload)))
			}
		}
		// The sink has returned: nothing reads the buffer any more.
		minitls.PutWireBuf(j.buf)
		j.buf = nil
	}
	// Slide the rest down so the queue keeps its capacity across writes.
	rest := copy(s.q, s.q[n:])
	clear(s.q[rest:])
	s.q = s.q[:rest]
	if tracing && wire > 0 {
		s.e.tr.Record(trace.PhaseRecord, trace.Op(qat.OpSym), trace.TagNone, wire, start, time.Since(start))
	}
	return s.err
}
