package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// This file is the engine's one submission path. Every offloaded op goes
// Do → submitPath(attempt) → route(class): submitPath owns the request
// construction, the settled/trace/in-flight bookkeeping and the
// submit-failure policy, finish is the one result epilogue, and the
// attempt's pauseStrategy contributes the four points where the three
// crypto pause implementations (spin, fiber, stack) genuinely diverge:
// result delivery, parking, and the reactions to a full ring and to a
// retryable submit-time failure.

// attempt is the state of one submission attempt, shared between the
// submit path, the response callback and the deadline logic. The settled
// flag is the CAS gate between response delivery and deadline expiry;
// everything else is only touched on the worker goroutine or during the
// fiber↔worker strict handoff.
//
// Attempts are pooled, so an offload round trip allocates none. An
// attempt goes back to the pool (recycle) only once nothing can reach it:
// its one device callback won the settled CAS and the result was consumed,
// or it never reached a ring. One settled by timeout or cancel is never
// recycled: the device still holds its callback and runs it later, and
// that callback, losing the CAS, must find this attempt and no other op's.
type attempt struct {
	e     *Engine
	call  *minitls.OpCall
	kind  minitls.OpKind
	class Class
	work  func() (any, error)
	s     pauseStrategy
	cb    func(qat.Response) // a.onResponse, bound once per pooled attempt

	n         int // attempt number (0-based)
	tag       trace.Tag
	settled   atomic.Bool
	delivered atomic.Bool // the callback won the CAS and handed over the result
	result    any         // the delivered result (spin; fiber uses the OpCall)
	err       error
	deadline  time.Time
	idx       int // instance index; -1 until the request is on a ring
	preStart  time.Time
	submitAt  time.Time
}

var attemptPool = sync.Pool{New: func() any {
	a := new(attempt)
	a.cb = a.onResponse
	return a
}}

// newAttempt starts attempt n of an op, paused by s; its deadline runs
// from here.
func (e *Engine) newAttempt(call *minitls.OpCall, kind minitls.OpKind, class Class, work func() (any, error), n int, s pauseStrategy) *attempt {
	a := attemptPool.Get().(*attempt)
	*a = attempt{e: e, call: call, kind: kind, class: class, work: work, s: s, cb: a.cb, n: n, idx: -1, deadline: e.opDeadline()}
	return a
}

// recycle returns a to the pool unless the device may still call it back:
// it reached a ring and no callback has delivered its response.
func (a *attempt) recycle() {
	if a.idx >= 0 && !a.delivered.Load() {
		return
	}
	*a = attempt{cb: a.cb}
	attemptPool.Put(a)
}

// outcome says what submitPath's caller should do next.
type outcome int

const (
	// outReturn: the res/err pair is final for this Do invocation.
	outReturn outcome = iota
	// outResubmit: run another submission attempt (a.n was advanced for
	// retryable failures; ring-full resubmissions keep their count).
	outResubmit
)

// pauseStrategy is the injected behavior distinguishing the crypto pause
// implementations: the straight offload mode spins inside the crypto call
// (§2.4), ASYNC_JOB fibers park inside the engine, stack ops park by
// returning ErrWantAsync to the event loop (§4.1). The strategies are
// stateless; an op's state lives in its attempt.
type pauseStrategy interface {
	// deliver hands a completed result to the op's owner, sets
	// a.delivered and, in the async modes, fires the connection's async
	// notification. It runs with the settled CAS already won, and touches
	// a no more once it has set a.delivered: the op may then recycle it.
	deliver(a *attempt, result any, err error)
	// park waits for the response of the request just submitted, or
	// suspends the op until it arrives.
	park(a *attempt) (any, error, outcome)
	// ringFull reacts to a full request ring (§3.2 "failure of crypto
	// submission").
	ringFull(a *attempt) (any, error, outcome)
	// retryFailed reacts to a retryable submit-time failure (e.g. a
	// device reset) — resubmit within budget, degrade past it.
	retryFailed(a *attempt) (any, error, outcome)
}

// onResponse is the qat response callback: settle the op, trace the
// retrieval phase, settle the in-flight counter, deliver.
func (a *attempt) onResponse(r qat.Response) {
	if !a.settled.CompareAndSwap(false, true) {
		return // the op already timed out and degraded
	}
	if !a.submitAt.IsZero() {
		// Response retrieval: submission to this callback, inside a poll.
		a.e.tr.Record(trace.PhaseRetrieve, trace.Op(opTypeFor(a.kind)), a.tag, 0, a.submitAt, time.Since(a.submitAt))
	}
	a.e.onResponse(a.class)
	a.s.deliver(a, r.Result, r.Err)
}

// submitPath runs one submission attempt: build the request, place it on
// a ring as the op pauses (§3.2 pre-processing), and park the op through
// its strategy.
func (e *Engine) submitPath(a *attempt) (any, error, outcome) {
	s := a.s
	if e.tracing() {
		a.preStart = time.Now()
	}
	a.tag = attemptTag(a.n)
	req := qat.Request{
		Op:       opTypeFor(a.kind),
		Work:     a.work,
		Callback: a.cb,
	}
	if !a.preStart.IsZero() {
		a.submitAt = time.Now()
	}
	idx, err := e.route(a.class, req)
	if err != nil {
		if errors.Is(err, qat.ErrRingFull) {
			e.ringFulls.Add(1)
			return s.ringFull(a)
		}
		if errors.Is(err, ErrNoInstance) {
			return e.fallback(a)
		}
		if retryable(err) {
			return s.retryFailed(a)
		}
		return nil, err, outReturn
	}
	a.idx = idx
	e.onSubmit(a.class)
	if !a.preStart.IsZero() {
		// Pre-processing: crypto-call entry to the request on the ring.
		e.tr.Record(trace.PhasePre, trace.Op(opTypeFor(a.kind)), a.tag, 0, a.preStart, time.Since(a.preStart))
	}
	return s.park(a)
}

// finish is the one result epilogue, run by every strategy on a delivered
// response: hand a final result (or its non-retryable error) to the TLS
// stack, otherwise retry within budget and degrade to software past it.
func (e *Engine) finish(a *attempt, result any, rerr error) (any, error, outcome) {
	if !e.settleResult(a, result, rerr) {
		return e.retryOrFallback(a)
	}
	if rerr != nil {
		return nil, rerr, outReturn
	}
	return result, nil, outReturn
}

// settleResult does the breaker accounting and result verification for a
// delivered response and reports whether it is final; false is a
// retryable failure (device reset, or a result the Verify hook rejects).
// An attempt that never reached a ring (idx < 0) skips the breaker.
func (e *Engine) settleResult(a *attempt, result any, rerr error) bool {
	switch {
	case rerr != nil:
		e.recordResult(a.idx, false)
		return !retryable(rerr)
	case !e.verifyOK(a.kind, result):
		e.recordResult(a.idx, false)
		e.verifyFails.Add(1)
		return false
	}
	e.recordResult(a.idx, true)
	return true
}

// retryOrFallback spends one unit of the retry budget on a retryable
// failure, or degrades the op to software once the budget is gone.
func (e *Engine) retryOrFallback(a *attempt) (any, error, outcome) {
	if a.n >= e.maxRetry {
		return e.fallback(a)
	}
	a.n++
	e.retries.Add(1)
	return nil, nil, outResubmit
}

// fallback is swFallback in submitPath's return shape.
func (e *Engine) fallback(a *attempt) (any, error, outcome) {
	res, err := e.swFallback(a.work)
	return res, err, outReturn
}

// --- spin strategy (straight offload) --------------------------------------

// spinStrategy is the straight offload mode (§2.4, Fig. 3): the crypto
// function call becomes an offload I/O call that busy-waits for its
// response. The worker core spins, and at most one engine computes for
// this worker at any time — the blocking the paper measures.
type spinStrategy struct{}

func (spinStrategy) deliver(a *attempt, result any, err error) {
	a.result, a.err = result, err
	a.delivered.Store(true)
}

func (spinStrategy) park(a *attempt) (any, error, outcome) {
	e := a.e
	for !a.delivered.Load() {
		if e.pollAll(0) == 0 {
			runtime.Gosched()
		}
		e.tickHealth()
		if expired(a.deadline) && a.settled.CompareAndSwap(false, true) {
			e.settleTimeout(a)
			return e.fallback(a)
		}
	}
	failed := a.n
	res, err, out := e.finish(a, a.result, a.err)
	if out == outResubmit {
		e.retrySleep(failed)
	}
	return res, err, out
}

func (spinStrategy) ringFull(a *attempt) (any, error, outcome) {
	// Retrieve whatever completed and resubmit under the same attempt and
	// deadline. A ring still full past the deadline holds slots leaked by
	// a stalled engine: reclaim them and degrade.
	a.e.pollAll(0)
	a.e.tickHealth()
	if expired(a.deadline) {
		a.e.reclaimLeaked()
		return a.e.fallback(a)
	}
	return nil, nil, outResubmit
}

func (spinStrategy) retryFailed(a *attempt) (any, error, outcome) {
	failed := a.n
	res, err, out := a.e.retryOrFallback(a)
	if out == outResubmit {
		a.e.retrySleep(failed)
	}
	return res, err, out
}

// doStraight submits through submitPath until an attempt is final. A
// ring-full resubmission reuses its attempt, so the deadline keeps
// running across it; a retry is a new attempt with a new deadline.
func (e *Engine) doStraight(call *minitls.OpCall, kind minitls.OpKind, class Class, work func() (any, error)) (any, error) {
	a := e.newAttempt(call, kind, class, work, 0, spinStrategy{})
	for {
		n := a.n
		res, err, out := e.submitPath(a)
		if out == outReturn {
			a.recycle()
			return res, err
		}
		if next := a.n; next != n {
			a.recycle()
			a = e.newAttempt(call, kind, class, work, next, spinStrategy{})
		}
	}
}

// --- fiber strategy --------------------------------------------------------

// fiberStrategy parks the calling ASYNC_JOB (§3.2 pre-processing /
// Fig. 6): the response callback stores the result on the OpCall and
// fires the connection's notification; the application then resumes the
// job, and execution continues inside park. A resume after the op
// deadline (the worker's deadline scan) degrades the op to software
// instead of re-pausing.
type fiberStrategy struct{}

func (fiberStrategy) deliver(a *attempt, result any, err error) {
	call := a.call
	call.SetResult(result, err)
	a.delivered.Store(true)
	if call.WaitCtx != nil {
		call.WaitCtx.Notify()
	}
}

func (fiberStrategy) park(a *attempt) (any, error, outcome) {
	e := a.e
	a.call.SubmitFailed = false
	a.call.SetResult(nil, nil)
	// Tolerate spurious resumes: stay paused until the response callback
	// has delivered — unless the deadline passed, in which case the op is
	// abandoned and degraded.
	for {
		if err := a.call.Job.Pause(); err != nil {
			return nil, err, outReturn
		}
		if a.delivered.Load() {
			break
		}
		if a.call.Cancelled {
			// The connection is being torn down (lifecycle deadline or
			// drain cutoff): abandon the offload without a software
			// fallback — nothing will consume the result.
			if a.settled.CompareAndSwap(false, true) {
				e.settleCancel(a)
				return nil, ErrCancelled, outReturn
			}
			break // lost the CAS: the response landed first, consume it
		}
		if expired(a.deadline) {
			if a.settled.CompareAndSwap(false, true) {
				e.settleTimeout(a)
				return e.fallback(a)
			}
			break // lost the CAS: the response landed first
		}
	}
	result, rerr := a.call.Result()
	return e.finish(a, result, rerr)
}

func (fiberStrategy) ringFull(a *attempt) (any, error, outcome) {
	// Pause with the retry indication; the application reschedules this
	// handler later and we resubmit with the same attempt count.
	a.call.SubmitFailed = true
	if perr := a.call.Job.Pause(); perr != nil {
		return nil, perr, outReturn
	}
	return nil, nil, outResubmit
}

func (fiberStrategy) retryFailed(a *attempt) (any, error, outcome) {
	return a.e.retryOrFallback(a)
}

// doFiber submits through submitPath until an attempt is final.
func (e *Engine) doFiber(call *minitls.OpCall, kind minitls.OpKind, class Class, work func() (any, error)) (any, error) {
	if call.Job == nil {
		return nil, errors.New("engine: fiber mode without a job")
	}
	for n := 0; ; {
		if call.Cancelled {
			// The connection is being torn down — already on entry, or while
			// a full ring paused this op — so refuse to submit: a cancelled
			// handshake must not re-park, or its job would outlive its
			// connection.
			return nil, ErrCancelled
		}
		a := e.newAttempt(call, kind, class, work, n, fiberStrategy{})
		res, err, out := e.submitPath(a)
		n = a.n
		a.recycle()
		if out == outReturn {
			return res, err
		}
	}
}

// --- stack strategy --------------------------------------------------------

// stackStrategy drives the stack-async state flag (Fig. 5): the op parks
// by marking the flag in flight and returning ErrWantAsync; the
// re-entered Do call (see doStack) consumes the ready result.
type stackStrategy struct{}

func (stackStrategy) deliver(a *attempt, result any, err error) {
	st, wctx := a.call.Stack, a.call.WaitCtx
	a.delivered.Store(true)
	st.MarkReady(result, err)
	if wctx != nil {
		wctx.Notify()
	}
}

func (stackStrategy) park(a *attempt) (any, error, outcome) {
	a.call.Stack.MarkInflight()
	a.e.stackOps[a.call.Stack] = a
	return nil, minitls.ErrWantAsync, outReturn
}

func (stackStrategy) ringFull(a *attempt) (any, error, outcome) {
	a.call.Stack.MarkRetry()
	return nil, minitls.ErrWantAsyncRetry, outReturn
}

func (stackStrategy) retryFailed(a *attempt) (any, error, outcome) {
	res, err, out := a.e.retryOrFallback(a)
	if out == outResubmit {
		// A submit-time reset: surface the retry to the event loop, which
		// re-invokes us with the state flag set to retry.
		a.call.Stack.MarkRetry()
		return nil, minitls.ErrWantAsyncRetry, outReturn
	}
	return res, err, out
}

// doStack handles the stack-async re-entries around submitPath: first
// entry submits and returns ErrWantAsync; the re-entered call consumes
// the ready result. A re-entry while the op is still inflight past its
// deadline (the worker's deadline scan) abandons the offload and
// degrades to software.
func (e *Engine) doStack(call *minitls.OpCall, kind minitls.OpKind, class Class, work func() (any, error)) (any, error) {
	st := call.Stack
	if st == nil {
		return nil, errors.New("engine: stack mode without a StackOp")
	}
	if call.Cancelled {
		return nil, e.cancelStack(st)
	}
	n := 0
	switch st.State() {
	case asynclib.StackReady:
		a := e.stackOps[st]
		delete(e.stackOps, st)
		if a == nil {
			// Readied by someone other than this engine's callback: a
			// first attempt with no instance to credit.
			a = e.newAttempt(call, kind, class, work, 0, stackStrategy{})
		}
		result, rerr := st.Consume()
		res, err, out := e.finish(a, result, rerr)
		n = a.n
		a.recycle()
		if out == outReturn {
			return res, err
		}
		// Fall through to resubmission: Consume reset the op to idle.
	case asynclib.StackInflight:
		a := e.stackOps[st]
		if a == nil {
			return nil, errors.New("engine: stack op already in flight")
		}
		if expired(a.deadline) && a.settled.CompareAndSwap(false, true) {
			delete(e.stackOps, st)
			e.settleTimeout(a)
			st.Reset()
			return e.swFallback(work)
		}
		// Spurious re-entry before the deadline (e.g. the worker's
		// deadline scan firing early): keep waiting for the response.
		return nil, minitls.ErrWantAsync
	}
	// State idle or retry: submit.
	a := e.newAttempt(call, kind, class, work, n, stackStrategy{})
	res, err, _ := e.submitPath(a)
	if a.idx < 0 {
		a.recycle() // not parked: a retry indication or a software result
	}
	return res, err
}

// cancelStack abandons a stack-async op in whatever state it is in: an
// inflight op settles with cancel accounting, a delivered-but-unconsumed
// result is discarded, and the state flag resets to idle so the StackOp
// could be reused.
func (e *Engine) cancelStack(st *asynclib.StackOp) error {
	switch st.State() {
	case asynclib.StackReady:
		if a := e.stackOps[st]; a != nil {
			a.recycle()
		}
		delete(e.stackOps, st)
		st.Consume() // discard: the result has no consumer
	case asynclib.StackInflight:
		if a := e.stackOps[st]; a != nil && a.settled.CompareAndSwap(false, true) {
			e.settleCancel(a)
		}
		delete(e.stackOps, st)
		st.Reset()
	default:
		st.Reset()
	}
	return ErrCancelled
}
