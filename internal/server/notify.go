//go:build linux

package server

import (
	"time"

	"qtls/internal/offload"
	"qtls/internal/trace"
)

// Async event notification (§3.4) through an offload.Notifier: it owns
// the queue of completed-but-undelivered events and the scheme's delivery
// rule (a kernel wakeup and hand-back on the epoll wakeup, or neither and
// hand-back at the end-of-loop drain). Everything here runs on
// the worker goroutine — the engine's response callbacks fire inside
// engine.Poll, which the worker drives.

// asyncEventCallback is the engine's response-callback notification hook.
// It runs on the worker goroutine (inside an engine.Poll call).
func (w *Worker) asyncEventCallback(arg any) {
	c := arg.(*conn)
	if c.queued {
		// The event already queued for c resumes it, and the resume finds
		// whatever has been delivered since: one entry per conn is enough,
		// and a bool then says whether the queue still lists it.
		return
	}
	c.queued = true
	if w.tr.Active() {
		c.notifyAt = time.Now().UnixNano()
	}
	if w.notif.Wake(c) {
		// The scheme demands a kernel wakeup for this event: a real write
		// syscall on the notification pipe; epoll reports it on a later
		// iteration, costing user/kernel switches. Kernel bypass never
		// lands here.
		w.notifyPipe.Notify()
	}
}

// suspendForAsync parks the connection while an offload job is paused.
func (w *Worker) suspendForAsync(c *conn) {
	w.setAsyncPending(c, true)
	if w.cfg.OpTimeout > 0 {
		c.asyncDeadline = time.Now().Add(w.cfg.OpTimeout)
	}
}

// resumeAsync restores the saved handler and re-enters it (§3.2
// post-processing). With tracing on it attributes the two application
// phases: notification (event queued → handler picked up) and
// post-processing (handler re-entry → yield back to the loop).
func (w *Worker) resumeAsync(c *conn) {
	if c.closed {
		return
	}
	w.setAsyncPending(c, false)
	w.Stats.AsyncEvents.Add(1)
	notifyAt := c.notifyAt
	c.notifyAt = 0
	if notifyAt != 0 && w.tr.Active() {
		now := time.Now()
		w.tr.Record(trace.PhaseNotify, trace.OpNone, w.notifyTag(), int64(c.fd), time.Unix(0, notifyAt), time.Duration(now.UnixNano()-notifyAt))
		w.invoke(c)
		w.tr.Record(trace.PhasePost, trace.OpNone, trace.TagNone, int64(c.fd), now, time.Since(now))
	} else {
		w.invoke(c)
	}
	w.replayDeferredRead(c)
}

// notifyTag says which notification scheme delivered the async event.
func (w *Worker) notifyTag() trace.Tag {
	if w.cfg.Notify == offload.NotifierKernelBypass {
		return trace.TagKernelBypass
	}
	return trace.TagFD
}

// pendingNotifications counts queued async events across both delivery
// points — the epoll-timeout input.
func (w *Worker) pendingNotifications() int {
	return w.notif.Pending(offload.DeliverWakeup) + w.notif.Pending(offload.DeliverLoopEnd)
}

func (w *Worker) processAsyncQueue() {
	// Drain the end-of-loop delivery point (§3.4's application-defined
	// async queue). Handlers may enqueue more events (next offload op of
	// the same connection completes during a heuristic poll), so iterate
	// until empty.
	for {
		q := w.notif.Deliver(offload.DeliverLoopEnd)
		if len(q) == 0 {
			return
		}
		for _, h := range q {
			w.deliverEvent(h.(*conn))
		}
	}
}

func (w *Worker) processFDQueue() {
	// The wakeup delivery point: events whose completion wrote the
	// notification pipe (every event under fd).
	for _, h := range w.notif.Deliver(offload.DeliverWakeup) {
		w.deliverEvent(h.(*conn))
	}
}

// deliverEvent hands one event popped from the notifier to its conn. A
// conn closed while the event waited was kept off the free list for it
// (reclaim); the queue lets go of it here.
func (w *Worker) deliverEvent(c *conn) {
	c.queued = false
	if c.closed {
		w.reclaim(c)
		return
	}
	w.resumeAsync(c)
}

// queueRetry parks c until the next retry-queue pass resubmits its op (the
// request ring was full).
func (w *Worker) queueRetry(c *conn) {
	w.setAsyncPending(c, true)
	c.retryQueued = true
	w.retryQueue = append(w.retryQueue, c)
}

func (w *Worker) processRetryQueue() {
	if len(w.retryQueue) == 0 {
		return
	}
	// A failed submission means the request ring was full; retrieving
	// responses frees slots before the retry.
	if w.eng != nil && w.pollEngine(trace.TagRetry) > 0 {
		w.lastPoll = time.Now()
	}
	q := w.retryQueue
	w.retryQueue = nil
	for _, c := range q {
		w.Stats.RetryEvents.Add(1)
		c.retryQueued = false
		if c.closed {
			w.reclaim(c) // the queue lets go; the next life is not invoked
			continue
		}
		w.setAsyncPending(c, false)
		w.invoke(c)
		w.replayDeferredRead(c)
	}
}
