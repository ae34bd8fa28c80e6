// Package asynclib re-implements the OpenSSL asynchronous-job
// infrastructure the QTLS paper relies on (§4.1): cooperative pause and
// resumption of an in-progress crypto-bearing operation, so that an offload
// job can be suspended immediately after a crypto request is submitted to
// the accelerator and resumed when the response has been retrieved.
//
// Two implementations are provided, matching the paper's two designs:
//
//   - Fiber async (Fig. 6): Job wraps the running piece of a TLS connection
//     in a cooperative fiber. OpenSSL uses makecontext/swapcontext fibers
//     taken from a per-thread pool (ASYNC_init_thread); here a fiber is an
//     iter.Pull coroutine — the runtime switches straight between the
//     caller and the fiber, without a trip through the scheduler — that
//     outlives its job and waits on a bounded idle list for the next one
//     (fiber.go). Pause returns control to the caller and a later StartJob
//     jumps straight back to the pause point. This is the mode included in
//     OpenSSL 1.1.0+ and the one the evaluation uses.
//
//   - Stack async (Fig. 5): StackState is the state flag driving the
//     intrusive alternative, where the crypto API alters its control flow
//     according to an inflight/ready/retry flag and the caller re-invokes
//     the same TLS API to consume the result.
//
// A WaitCtx carries the notification plumbing attached to a job: an
// optional file descriptor (FD-based notification) and an optional
// application-level callback with argument (the kernel-bypass notification
// scheme, §4.4 — SSL_set_async_callback / ASYNC_WAIT_CTX_get_callback).
package asynclib

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// jobStats counts fiber lifecycle events process-wide. The counters are
// cumulative and monotonic; /metrics exports them as gauges derived from
// Stats() so the balance started == finished + (paused - resumed) is
// directly visible when hunting leaked fibers.
var jobStats struct {
	started  atomic.Int64
	paused   atomic.Int64
	resumed  atomic.Int64
	finished atomic.Int64
}

// JobStats is a point-in-time view of the fiber lifecycle counters.
type JobStats struct {
	// Started counts jobs created by StartJob.
	Started int64
	// Paused counts Pause calls that suspended a fiber.
	Paused int64
	// Resumed counts StartJob calls that context-swapped into a paused
	// fiber.
	Resumed int64
	// Finished counts job functions that ran to completion.
	Finished int64
}

// Stats returns the cumulative fiber lifecycle counters.
func Stats() JobStats {
	return JobStats{
		Started:  jobStats.started.Load(),
		Paused:   jobStats.paused.Load(),
		Resumed:  jobStats.resumed.Load(),
		Finished: jobStats.finished.Load(),
	}
}

// Status is the result of driving a job with StartJob.
type Status int

const (
	// StatusFinish indicates the job function ran to completion
	// (ASYNC_FINISH).
	StatusFinish Status = iota
	// StatusPause indicates the job paused after submitting an async
	// crypto request; resume it later with StartJob (ASYNC_PAUSE).
	StatusPause
	// StatusErr indicates the job could not be started or resumed.
	StatusErr
)

// String returns the OpenSSL-style name of the status.
func (s Status) String() string {
	switch s {
	case StatusFinish:
		return "ASYNC_FINISH"
	case StatusPause:
		return "ASYNC_PAUSE"
	case StatusErr:
		return "ASYNC_ERR"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNotInJob is returned by Pause when called outside a running job.
var ErrNotInJob = errors.New("asynclib: pause outside an async job")

// ErrJobFinished is returned by StartJob when asked to resume a job that
// has already finished.
var ErrJobFinished = errors.New("asynclib: job already finished")

// WaitCtx is the wait context associated with an async job
// (ASYNC_WAIT_CTX). It carries either a notification file descriptor, an
// application-level callback, or both.
type WaitCtx struct {
	fd    int
	hasFD bool

	callback    func(arg any)
	callbackArg any
}

// NewWaitCtx returns an empty wait context.
func NewWaitCtx() *WaitCtx { return &WaitCtx{fd: -1} }

// SetFD associates a notification file descriptor (the set-FD API, §4.4).
func (w *WaitCtx) SetFD(fd int) {
	w.fd = fd
	w.hasFD = true
}

// FD returns the associated notification descriptor, if any (the get-FD
// API, §4.4).
func (w *WaitCtx) FD() (fd int, ok bool) { return w.fd, w.hasFD }

// ClearFD removes the descriptor association.
func (w *WaitCtx) ClearFD() {
	w.fd = -1
	w.hasFD = false
}

// SetCallback installs the application-level callback and its argument
// used by the kernel-bypass notification scheme. The paper adds exactly
// these two members — callback and callback_arg — to the ASYNC_JOB
// structure (§4.4).
func (w *WaitCtx) SetCallback(cb func(arg any), arg any) {
	w.callback = cb
	w.callbackArg = arg
}

// Callback returns the installed callback and argument
// (ASYNC_WAIT_CTX_get_callback); ok is false when none is set.
func (w *WaitCtx) Callback() (cb func(arg any), arg any, ok bool) {
	return w.callback, w.callbackArg, w.callback != nil
}

// Notify fires the kernel-bypass callback if one is installed and reports
// whether it did. The QAT response callback uses this to enqueue the async
// handler onto the application's async queue without touching the kernel.
func (w *WaitCtx) Notify() bool {
	if w.callback == nil {
		return false
	}
	w.callback(w.callbackArg)
	return true
}

// Job is a fiber-based ASYNC_JOB: a suspended or running execution of a
// job function. The zero value is an unstarted job; StartJob(nil, fn)
// allocates one. The handle is per job — the fiber that runs it is
// borrowed and goes back to the pool when the job function returns, so
// Finished and Err stay valid however often that fiber is reused. A
// finished Job may be reset to the zero value and started again.
//
// A Job is owned by a single driving goroutine (the event-loop worker).
// StartJob must not be called concurrently for the same job.
type Job struct {
	wctx *WaitCtx

	fiber *fiber           // non-nil from start until the job function returns
	fn    func(*Job) error // the job function, while the job is live

	finished bool
	err      error
}

// WaitCtx returns the job's wait context, creating it on first use.
func (j *Job) WaitCtx() *WaitCtx {
	if j.wctx == nil {
		j.wctx = NewWaitCtx()
	}
	return j.wctx
}

// Finished reports whether the job function has returned.
func (j *Job) Finished() bool { return j.finished }

// Err returns the job function's error once finished.
func (j *Job) Err() error { return j.err }

// StartJob starts or resumes a fiber-based async job, mirroring
// ASYNC_start_job:
//
//   - With job == nil (or an unstarted job) it takes a fiber from the
//     pool and runs fn(job) on it; fn receives its own *Job so nested
//     code can pause it. (OpenSSL finds the current job via thread-local
//     state; Go has no goroutine-locals, so the job is passed explicitly
//     — the only API divergence.)
//   - With a previously paused job it ignores fn and resumes the fiber at
//     its pause point (fiber context swap).
//
// It returns StatusPause together with the job when the fiber paused, and
// StatusFinish with the job function's error when it ran to completion.
func StartJob(job *Job, fn func(*Job) error) (Status, *Job, error) {
	if job == nil {
		job = &Job{}
	}
	if job.finished {
		return StatusErr, job, ErrJobFinished
	}
	f := job.fiber
	if f == nil {
		if fn == nil {
			return StatusErr, job, errors.New("asynclib: StartJob with nil function")
		}
		f = getFiber()
		f.job, job.fiber, job.fn = job, f, fn
		jobStats.started.Add(1)
	} else {
		jobStats.resumed.Add(1)
	}
	// Context swap into the fiber; control comes back at its next Pause or
	// when the job function has returned.
	f.next()
	if !job.finished {
		return StatusPause, job, nil
	}
	f.job, job.fiber, job.fn = nil, nil, nil
	putFiber(f)
	jobStats.finished.Add(1)
	return StatusFinish, job, job.err
}

// Pause suspends the calling fiber and returns control to the goroutine
// that invoked StartJob (ASYNC_pause_job). It must be called from within
// the job function; on a nil job, or one no fiber is running, it returns
// ErrNotInJob. It returns when the job is resumed.
func (j *Job) Pause() error {
	if j == nil || j.fiber == nil {
		return ErrNotInJob
	}
	jobStats.paused.Add(1)
	j.fiber.yield(struct{}{})
	return nil
}
