// Package engine is the QAT Engine layer of QTLS (§3.2, §4.3): the bridge
// between the TLS library (internal/minitls) and the accelerator driver
// (internal/qat). It implements minitls.Provider by submitting crypto work
// to a QAT crypto instance and either
//
//   - blocking until the response arrives — the straight offload mode
//     (QAT+S) whose offload-I/O blocking motivates the paper (§2.4); or
//   - pausing the calling offload job immediately after submission and
//     returning control to the application (the QTLS asynchronous offload
//     framework); the pre-registered response callback later delivers the
//     result and fires the connection's async notification.
//
// The engine also keeps the per-class in-flight request counters
// (Rasym, Rcipher, Rprf) that feed the heuristic polling scheme (§4.3).
//
// # Graceful degradation
//
// A sick device (stalled engine, dropped or corrupted responses, endpoint
// resets — see internal/fault) must degrade handshakes, not hang them. The
// hardening knobs in Config enable, per offloaded operation:
//
//   - a deadline (OpTimeout) after which the engine abandons the offload
//     and computes the result in software on the worker core;
//   - bounded retries with exponential backoff for retryable failures
//     (device reset, corrupted response), then software fallback;
//   - a verification hook (Verify) that detects corrupted responses
//     before they reach the TLS state machine; and
//   - the pool's health manager (qat.Lifecycle), which routes submissions
//     away from instances whose recent offloads keep failing (with
//     half-open probes to detect recovery) and away from quarantined
//     devices.
//
// All knobs default to off, in which case the engine behaves exactly like
// the unhardened original.
package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/flight"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// Class groups op kinds the way the heuristic polling scheme counts them.
type Class int

const (
	// ClassAsym covers RSA/ECDSA/ECDH (the slow asymmetric calculations).
	ClassAsym Class = iota
	// ClassCipher covers symmetric record protection.
	ClassCipher
	// ClassPRF covers TLS 1.2 PRF derivations.
	ClassPRF

	numClasses = 3
)

// classify maps an op kind to its in-flight counter class; ok is false
// for kinds the engine never offloads (HKDF).
func classify(kind minitls.OpKind) (Class, bool) {
	switch kind {
	case minitls.KindRSA, minitls.KindECDSA, minitls.KindECDH:
		return ClassAsym, true
	case minitls.KindCipher:
		return ClassCipher, true
	case minitls.KindPRF:
		return ClassPRF, true
	default:
		return 0, false
	}
}

func opTypeFor(kind minitls.OpKind) qat.OpType {
	switch kind {
	case minitls.KindRSA:
		return qat.OpRSA
	case minitls.KindECDSA:
		return qat.OpECDSA
	case minitls.KindECDH:
		return qat.OpECDH
	case minitls.KindPRF:
		return qat.OpPRF
	default:
		return qat.OpCipher
	}
}

// ErrNoInstance is returned (internally) when the health manager admits
// no crypto instance; the engine then degrades the operation to software.
var ErrNoInstance = errors.New("engine: no healthy crypto instance available")

// ErrCancelled is returned when an in-flight offload is abandoned because
// its connection is being torn down (OpCall.Cancelled set via
// minitls.Conn.CancelAsync): the op's inflight slot is released and the
// instance breaker is informed, but no software fallback is computed —
// the result has no consumer.
var ErrCancelled = errors.New("engine: async operation cancelled")

// Config configures an Engine.
type Config struct {
	// Instance is the QAT crypto instance assigned to this worker
	// (one instance per Nginx worker in the paper's deployment).
	Instance *qat.Instance
	// Instances optionally assigns several crypto instances — typically
	// one per endpoint — so a single worker can employ more computation
	// engines (§2.3: "one process can be assigned with multiple QAT
	// instances from different endpoints"). Submissions round-robin
	// across the instances on the preferred devices (all of them under
	// PlacementSingle); Poll drains all of them. Mutually additive with
	// Instance.
	Instances []*qat.Instance
	// Offload selects which op kinds are offloaded; nil means all
	// offloadable kinds (RSA, ECDSA, ECDH, PRF, Cipher). This mirrors the
	// default_algorithm directive of the SSL Engine Framework (§A.7).
	Offload []minitls.OpKind
	// Placement selects which devices the engine prefers (see
	// placement.go). The zero value, PlacementSingle, prefers every device:
	// plain round-robin over all instances.
	Placement offload.Placement
	// InstanceDevices gives the pool device index of each instance,
	// parallel to the combined Instance+Instances list. nil means all
	// instances live on device 0.
	InstanceDevices []int
	// HomeDevice is the conn-hash home: under PlacementConnHash the engine
	// prefers this device and spills to the rest of the pool only when it is
	// broken or saturated. Ignored by other placements. Rehome moves it.
	HomeDevice int
	// Lifecycle, when set, is the health manager every submission asks
	// and every outcome feeds (one admit call and one result call per op):
	// an instance whose recent offloads keep failing is taken out of the
	// rotation until its half-open probes succeed, quarantined devices
	// admit no submissions and probing devices admit a trickle. New
	// watches the engine's instances with it.
	Lifecycle *qat.Lifecycle

	// OpTimeout bounds the wait for each offloaded response; once
	// exceeded the engine abandons the offload, reclaims any leaked ring
	// slots and computes the result in software. 0 disables deadlines
	// (an offload can wait forever — the pre-hardening behavior).
	OpTimeout time.Duration
	// MaxRetries bounds resubmissions after a retryable failure — a
	// device reset or a response the Verify hook rejects. After the
	// budget is spent the operation falls back to software. 0 means no
	// retries: the first retryable failure degrades immediately.
	MaxRetries int
	// RetryBackoff is the spin strategy's sleep before the first retry,
	// doubling per attempt: straight offload blocks its caller anyway. The
	// async strategies pace retries through the event loop instead.
	RetryBackoff time.Duration
	// Verify, when set, validates every offloaded result before it is
	// delivered to the TLS stack (e.g. an RSA sign→verify round-trip).
	// Returning false marks the response corrupted, which counts as a
	// retryable failure.
	Verify func(kind minitls.OpKind, result any) bool
	// Trace, when set, receives phase spans for the paper's first two
	// offload phases (pre-processing: entry → submitted; response
	// retrieval: submitted → callback). The remaining two phases
	// (notification, post-processing) are recorded by the event-loop
	// worker, which owns those boundaries. A nil or disabled buffer costs
	// one atomic load per op.
	Trace *trace.Buffer
	// Flight, when set, receives black-box events: breaker transitions
	// and software-fallback causes (timeout, cancel). A nil journal or a
	// disabled flight recorder costs one branch plus one atomic load per
	// event site.
	Flight *flight.Journal
}

// Engine implements minitls.Provider backed by one or more QAT crypto
// instances. One engine belongs to one worker goroutine; Poll must be
// called from that goroutine (response callbacks run inside Poll).
type Engine struct {
	insts   []*qat.Instance
	next    int // round-robin cursor: instances examined by route so far
	offload [6]bool

	// Device-placement state (see placement.go).
	placement      offload.Placement
	devOf          []int // device index per instance
	numDevs        int
	homeDev        int            // conn-hash home device (see Rehome)
	lc             *qat.Lifecycle // nil when health management is off
	preferred      []int          // instances on preferred devices
	other          []int          // instances elsewhere (spill targets)
	routeDev       atomic.Int64   // device of the last routed op
	placementFlips atomic.Int64

	// Hardening configuration (see Config).
	timeout  time.Duration
	maxRetry int
	backoff  time.Duration
	verifyFn func(minitls.OpKind, any) bool

	// Stack-async ops in flight, keyed by their state flag, so a
	// deadline-driven re-entry can find the pending attempt's deadline and
	// suppression flag. Entries for connections torn down mid-flight are
	// dropped lazily when the same StackOp is reused or consumed.
	stackOps map[*asynclib.StackOp]*attempt

	inflight [numClasses]atomic.Int64

	// Cumulative statistics.
	submitted  atomic.Int64
	retrieved  atomic.Int64
	ringFulls  atomic.Int64
	pollsEmpty atomic.Int64
	polls      atomic.Int64

	// Degradation statistics (a scrape reads them through Stats: the
	// qat_op_* counters, qat_sw_fallbacks, qat_retries, qat_instance_trips).
	timeouts    atomic.Int64
	fallbacks   atomic.Int64
	retries     atomic.Int64
	verifyFails atomic.Int64
	trips       atomic.Int64
	cancels     atomic.Int64

	// Phase tracing (inert when Config.Trace is nil or disabled).
	tr *trace.Buffer

	// Flight-recorder journal (inert when Config.Flight is nil or the
	// recorder is disabled).
	fl *flight.Journal
}

// New creates an engine bound to its QAT instances.
func New(cfg Config) (*Engine, error) {
	e := &Engine{
		timeout:  cfg.OpTimeout,
		maxRetry: cfg.MaxRetries,
		backoff:  cfg.RetryBackoff,
		verifyFn: cfg.Verify,
		stackOps: make(map[*asynclib.StackOp]*attempt),
	}
	if cfg.Instance != nil {
		e.insts = append(e.insts, cfg.Instance)
	}
	e.insts = append(e.insts, cfg.Instances...)
	if len(e.insts) == 0 {
		return nil, errors.New("engine: at least one crypto instance is required")
	}
	if cfg.Offload == nil {
		cfg.Offload = []minitls.OpKind{
			minitls.KindRSA, minitls.KindECDSA, minitls.KindECDH,
			minitls.KindPRF, minitls.KindCipher,
		}
	}
	for _, k := range cfg.Offload {
		if k == minitls.KindHKDF {
			return nil, errors.New("engine: HKDF cannot be offloaded through the QAT Engine")
		}
		e.offload[k] = true
	}
	e.fl = cfg.Flight
	e.lc = cfg.Lifecycle
	if err := e.initPlacement(cfg); err != nil {
		return nil, err
	}
	if e.lc != nil {
		for i, inst := range e.insts {
			// Journal every circuit transition (an open transition also arms
			// the flight recorder's anomaly dump trigger).
			e.lc.Watch(inst, func(from, to qat.BreakerState) {
				e.fl.Note(flight.KindBreaker, uint8(to), trace.OpNone, int64(from), int64(i))
			})
		}
	}
	e.tr = cfg.Trace
	return e, nil
}

// tracing reports whether phase spans should be timestamped at all; when
// false the op paths skip even the time.Now() calls.
func (e *Engine) tracing() bool { return e.tr.Active() }

// attemptTag distinguishes first-attempt spans from resubmissions.
func attemptTag(attempt int) trace.Tag {
	if attempt > 0 {
		return trace.TagRetry
	}
	return trace.TagNone
}

// recordResult feeds one outcome on instance idx to the health manager,
// counting the trip it may cause; idx < 0 (no instance involved) is
// ignored.
func (e *Engine) recordResult(idx int, ok bool) {
	if idx < 0 || e.lc == nil || !e.lc.Result(e.insts[idx], ok) {
		return
	}
	e.trips.Add(1)
}

// tickHealth runs the health manager's watchdog from inside a straight-mode
// spin. The spin holds its worker inside one loop iteration, and with no op
// deadline a device that stalls every op holds every worker there: nothing
// else would tick the wedge detector whose quarantine Reset fails the
// stalled ops back to the software path.
func (e *Engine) tickHealth() {
	if e.lc != nil {
		e.lc.Tick()
	}
}

// opDeadline returns the absolute deadline for an offload starting now
// (zero when deadlines are disabled).
func (e *Engine) opDeadline() time.Time {
	if e.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(e.timeout)
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// retryable reports whether err is worth a bounded resubmission.
func retryable(err error) bool {
	return errors.Is(err, qat.ErrDeviceReset)
}

// verifyOK applies the verification hook.
func (e *Engine) verifyOK(kind minitls.OpKind, result any) bool {
	if e.verifyFn == nil {
		return true
	}
	return e.verifyFn(kind, result)
}

// settleTimeout accounts for an op abandoned at its deadline: the class
// counter no longer carries it, the instance's breaker hears about the
// failure, slots the device itself marked leaked are reclaimed so the
// ring regains capacity, and the op's call is marked abandoned — the
// device may still run its closure, so its connection is never recycled.
func (e *Engine) settleTimeout(a *attempt) {
	class, idx := a.class, a.idx
	a.call.Abandoned = true
	e.inflight[class].Add(-1)
	e.timeouts.Add(1)
	e.fl.Note(flight.KindFallback, flight.FallbackTimeout, trace.OpNone, 0, int64(idx))
	e.recordResult(idx, false)
	e.reclaimLeaked()
}

// reclaimLeaked recovers ring slots leaked by stalled engine requests on
// every assigned instance.
func (e *Engine) reclaimLeaked() {
	for _, inst := range e.insts {
		inst.ReclaimLeaked()
	}
}

// swFallback degrades the operation to a software computation on the
// calling goroutine — slower, but the handshake completes (the paper's SW
// configuration for exactly this op).
func (e *Engine) swFallback(work func() (any, error)) (any, error) {
	e.fallbacks.Add(1)
	return work()
}

// retrySleep applies exponential backoff after failed attempt n (0-based).
// Only the spin strategy calls it: that path blocks its caller anyway.
func (e *Engine) retrySleep(attempt int) {
	if e.backoff <= 0 {
		return
	}
	time.Sleep(e.backoff << attempt)
}

// settleCancel accounts for an op abandoned because its connection is
// being torn down: same inflight/breaker/leak bookkeeping and abandoned
// mark as a timeout (a cancel on a stalled device must still trip its
// breaker), under its own counter.
func (e *Engine) settleCancel(a *attempt) {
	class, idx := a.class, a.idx
	a.call.Abandoned = true
	e.cancels.Add(1)
	e.fl.Note(flight.KindFallback, flight.FallbackCancel, trace.OpNone, 0, int64(idx))
	e.inflight[class].Add(-1)
	e.recordResult(idx, false)
	e.reclaimLeaked()
}

// Instances returns the engine's crypto instances.
func (e *Engine) Instances() []*qat.Instance { return e.insts }

// RingCapacity returns the summed request-ring capacity across the
// engine's crypto instances — the denominator of the admission-control
// pressure ratio (offload.OverloadPolicy).
func (e *Engine) RingCapacity() int {
	n := 0
	for _, inst := range e.insts {
		n += inst.Cap()
	}
	return n
}

// Name implements minitls.Provider.
func (e *Engine) Name() string { return "qat-engine" }

// Do implements minitls.Provider.
func (e *Engine) Do(call *minitls.OpCall, kind minitls.OpKind, work func() (any, error)) (any, error) {
	class, offloadable := classify(kind)
	if !offloadable || !e.offload[kind] {
		// Software fallback on the worker core (e.g. HKDF, or algorithms
		// excluded from default_algorithm).
		return work()
	}
	switch call.Mode {
	case minitls.AsyncModeFiber:
		return e.doFiber(call, kind, class, work)
	case minitls.AsyncModeStack:
		return e.doStack(call, kind, class, work)
	default:
		return e.doStraight(call, kind, class, work)
	}
}

var _ minitls.Provider = (*Engine)(nil)
