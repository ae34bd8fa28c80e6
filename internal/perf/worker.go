package perf

import (
	"slices"
	"time"

	"qtls/internal/offload"
	"qtls/internal/sim"
)

// worker models one event-driven server worker pinned to one HT core: a
// run queue of connection activations, the in-flight offload counters
// feeding the heuristic polling scheme, a response ring shared with its
// QAT crypto instance, and the CPU accounting from which utilization and
// throughput emerge.
type worker struct {
	m *Model
	// endpoint is the worker's QAT endpoint (its crypto instance).
	endpoint *endpoint

	queue sim.FIFO[*conn]
	busy  bool

	// CPU accounting.
	busyStart sim.Time
	busyAccum time.Duration

	// Offload state.
	inflight     int
	inflightAsym int
	responses    sim.FIFO[*conn] // response ring: conns whose op completed
	alive        int             // open connections (TCalive)
	idle         int             // keepalive-idle connections (TCidle)
	lastPoll     sim.Time

	// notif queues completed async events and schedules their delivery
	// (the §3.4 seam; nil for non-async configurations).
	notif *offload.Notifier

	// Timer-polling thread preemption debt (ticks landing while busy).
	stolen time.Duration
}

// active returns TCactive = TCalive - TCidle (§4.3).
func (w *worker) active() int { return w.alive - w.idle }

func (w *worker) now() sim.Time { return w.m.sim.Now() }

// enqueue adds a connection activation to the run queue and kicks the
// worker if idle.
func (w *worker) enqueue(c *conn) {
	w.queue.Push(c)
	if !w.busy {
		w.beginBusy()
		w.runNext()
	}
}

func (w *worker) beginBusy() {
	w.busy = true
	w.busyStart = w.now()
}

func (w *worker) endBusy() {
	w.busy = false
	w.busyAccum += time.Duration(w.now() - w.busyStart)
}

// runNext pops the next activation; called only while busy.
func (w *worker) runNext() {
	// Pay any polling-thread preemption debt first.
	if w.stolen > 0 {
		d := w.stolen
		w.stolen = 0
		w.m.sim.After(d, w.runNext)
		return
	}
	c, ok := w.queue.Pop()
	if !ok {
		w.taskBoundary()
		return
	}
	w.processConn(c)
}

// taskBoundary runs end-of-iteration work: heuristic polling checks and
// the async queue drain, then either continues with queued work or goes
// idle.
func (w *worker) taskBoundary() {
	if w.heuristicCheck() {
		// heuristicCheck scheduled a poll; it re-enters taskBoundary.
		return
	}
	if w.queue.Len() > 0 {
		w.runNext()
		return
	}
	w.endBusy()
}

// processConn executes one connection's script from its current step
// until it parks (network wait, async offload) or finishes.
func (w *worker) processConn(c *conn) {
	for {
		if c.idx >= len(c.script) {
			w.finishConn(c)
			w.runNext()
			return
		}
		st := c.script[c.idx]
		switch st.kind {
		case stepCPU:
			c.idx++
			w.m.sim.After(st.dur, func() { w.processConn(c) })
			return

		case stepHSDone:
			c.idx++
			if w.m.measuring {
				w.m.stats.Handshakes++
				if c.resumed {
					w.m.stats.Resumed++
				}
			}
			continue

		case stepReqDone:
			c.idx++
			if w.m.measuring {
				w.m.stats.Requests++
			}
			continue

		case stepNet:
			c.idx++
			delay := st.dur
			if st.bytes > 0 {
				delay += w.m.link.sendDelay(w.now(), st.bytes)
				if w.m.measuring {
					w.m.stats.BytesServed += int64(st.bytes)
				}
			}
			// While waiting for the client (next handshake flight or
			// keepalive request) the connection leaves TCactive: the
			// timeliness constraint compares in-flight requests against
			// connections actually awaiting server work (§3.3).
			w.idle++
			arr := w.now() + sim.Time(delay)
			w.m.sim.At(arr, func() {
				w.idle--
				w.enqueue(c)
			})
			w.runNext()
			return

		case stepCrypto:
			if !w.m.cfg.UseQAT || !st.op.offloadable() {
				// Software calculation on the worker core.
				c.idx++
				w.m.sim.After(st.sw, func() { w.processConn(c) })
				return
			}
			if !w.m.cfg.Async {
				w.straightOffload(c, st)
				return
			}
			if w.inflight >= w.m.p.RingCapacity {
				// Request ring full: the submission fails, the offload
				// job pauses with the retry indication, and the handler
				// is rescheduled after responses have been retrieved
				// (§3.2 "failure of crypto submission").
				if w.m.measuring {
					w.m.stats.RingFulls++
				}
				w.queue.Push(c)
				w.poll(false)
				return
			}
			w.asyncOffload(c, st)
			return
		}
	}
}

// finishConn completes a connection. The client-perceived completion
// (connection latency for Fig. 11) includes the final half-RTT back.
func (w *worker) finishConn(c *conn) {
	w.alive--
	if w.m.measuring {
		w.m.stats.Latency.Observe(float64(w.now()-c.start) + float64(w.m.p.RTT/2))
	}
	if c.onDone != nil {
		c.onDone(w.now())
	}
}

// straightOffload is the blocking offload of QAT+S (Fig. 3): the worker
// submits and then waits — busy-looping/sleeping on its core — until the
// polling thread's next tick after the accelerator completes.
func (w *worker) straightOffload(c *conn, st step) {
	p := &w.m.p
	c.idx++
	w.m.sim.After(p.SubmitCost, func() {
		submitAt := w.now()
		w.endpoint.submit(st.op, st.hw, func(at sim.Time) {
			// The response is ready after both engine completion and the
			// device pipeline latency; the inline busy-poll discovers it
			// with a small slop.
			ready := submitAt + sim.Time(w.pipeLatency(st.op))
			if at > ready {
				ready = at
			}
			ready += sim.Time(p.BlockedOpOverhead)
			w.m.sim.At(ready, func() {
				// Retrieval cost, then continue the same connection —
				// the worker never yielded.
				w.m.sim.After(p.PollCost+p.PerResponseCost, func() {
					w.processConn(c)
				})
			})
		})
	})
}

// pipeLatency returns the device's end-to-end latency floor for an op.
func (w *worker) pipeLatency(op opClass) time.Duration {
	if op.asym() {
		return w.m.p.PipeLatencyAsym
	}
	return w.m.p.PipeLatencySym
}

// asyncOffload is the QTLS pre-processing phase (§3.2): submit, pause the
// offload job, and return control to the event loop.
func (w *worker) asyncOffload(c *conn, st step) {
	p := &w.m.p
	c.idx++
	w.inflight++
	if st.op.asym() {
		w.inflightAsym++
	}
	swap := p.FiberSwapCost
	if w.m.cfg.Impl == ImplStack {
		swap = p.StackSwapCost
	}
	cost := p.SubmitCost + swap
	w.m.sim.After(cost, func() {
		submitAt := w.now()
		w.endpoint.submit(st.op, st.hw, func(at sim.Time) {
			// Response lands on the instance's response ring once the
			// pipeline latency has elapsed; it is retrieved by a later
			// poll — or delivered immediately by a kernel interrupt in
			// the PollInterrupt ablation.
			ready := submitAt + sim.Time(w.pipeLatency(st.op))
			if at > ready {
				ready = at
			}
			w.m.sim.At(ready, func() {
				if w.m.cfg.Poll.Scheme == offload.PollInterrupt {
					w.deliverInterrupt(c)
					return
				}
				w.responses.Push(c)
			})
		})
		// Control returned to the application: next connection. Check
		// the heuristic conditions right after the submission ("wherever
		// a crypto operation may be involved", §4.3).
		w.taskBoundary()
	})
}

// notifyCost is the per-event notification cost of the configured
// scheme: an FD event pays the write(2) + epoll processing, kernel bypass
// a user-space queue insertion.
func (w *worker) notifyCost() time.Duration {
	if w.m.cfg.Notify == offload.NotifierFD {
		return w.m.p.NotifyFDCost
	}
	return w.m.p.NotifyBypassCost
}

// retrieveOne pops one response off the ring, settles the in-flight
// counters and hands the event to the notifier. notifyCost charges the
// wakeup the notifier asks for.
func (w *worker) retrieveOne() {
	c, _ := w.responses.Pop()
	w.inflight--
	if c.idx > 0 {
		if st := c.script[c.idx-1]; st.kind == stepCrypto && st.op.asym() {
			w.inflightAsym--
		}
	}
	if w.m.measuring {
		w.m.stats.Notifications++
	}
	w.notif.Wake(c)
}

// collect drains the response ring through the notifier and returns the
// notification cost plus the two delivery batches, captured at the
// point the poll pays for them (the notifier queue never spans a
// virtual-time gap, mirroring the single-threaded live loop). The
// batches are copies: they are dispatched after that gap, and a notifier
// reuses a batch's storage at its next delivery.
func (w *worker) collect(n int) (cost time.Duration, wakeBatch, loopBatch []any) {
	p := &w.m.p
	for i := 0; i < n; i++ {
		cost += p.PerResponseCost + w.notifyCost()
		w.retrieveOne()
	}
	return cost, slices.Clone(w.notif.Deliver(offload.DeliverWakeup)), slices.Clone(w.notif.Deliver(offload.DeliverLoopEnd))
}

// poll retrieves all ready responses, paying the polling and
// notification costs, then dispatches the resumed handlers.
// It re-enters taskBoundary when done.
func (w *worker) poll(failover bool) {
	p := &w.m.p
	n := w.responses.Len()
	now := w.now()
	w.lastPoll = now
	if w.m.measuring {
		w.m.stats.Polls++
		if n == 0 {
			w.m.stats.EmptyPolls++
		}
		if failover {
			w.m.stats.FailoverPolls++
		}
	}
	cost := p.PollCost
	if n == 0 {
		// An empty poll from the spinning loop: one loop iteration's
		// worth of work paces the spin.
		cost += p.IdleLoopCost
	}
	ncost, wakeBatch, loopBatch := w.collect(n)
	cost += ncost
	w.m.sim.After(cost, func() {
		if len(wakeBatch) > 0 {
			// Wakeup-delivered events surface on a later epoll iteration;
			// the worker is free to process other work meanwhile.
			w.m.sim.After(p.FDDispatchDelay, func() {
				for _, h := range wakeBatch {
					w.enqueue(h.(*conn))
				}
			})
			w.taskBoundary()
			return
		}
		for _, h := range loopBatch {
			w.queue.Push(h.(*conn))
		}
		w.taskBoundary()
	})
}

// deliverInterrupt hands one completion to the worker via a kernel
// interrupt: per-event kernel transition cost, no polling (§3.3's
// rejected alternative, kept as an ablation).
func (w *worker) deliverInterrupt(c *conn) {
	p := &w.m.p
	w.inflight--
	if c.idx > 0 {
		if st := c.script[c.idx-1]; st.kind == stepCrypto && st.op.asym() {
			w.inflightAsym--
		}
	}
	if w.m.measuring {
		w.m.stats.Notifications++
	}
	// The interrupt steals CPU like a preemption.
	if w.busy {
		w.stolen += p.InterruptCost
	} else {
		w.busyAccum += p.InterruptCost
	}
	w.enqueue(c)
}

// heuristicCheck applies the efficiency and timeliness constraints
// (§3.3) via the shared offload.PollPolicy. It returns true when a poll
// was scheduled (the poll re-enters taskBoundary).
func (w *worker) heuristicCheck() bool {
	if !w.m.cfg.UseQAT || !w.m.cfg.Async {
		return false
	}
	if !w.m.cfg.Poll.ShouldPoll(w.inflight, w.inflightAsym, w.active()) {
		return false
	}
	w.poll(false)
	return true
}

// startTimerPolling launches the timer-based polling thread: every
// interval it preempts the worker core (context switch + poll). Ready
// responses are dispatched; empty polls still cost their tick.
func (w *worker) startTimerPolling() {
	p := &w.m.p
	interval := w.m.cfg.Poll.Interval
	var tick func()
	tick = func() {
		w.m.sim.After(interval, func() {
			tickCost := p.CtxSwitchCost + p.PollCost
			n := w.responses.Len()
			now := w.now()
			ncost, wakeBatch, loopBatch := w.collect(n)
			tickCost += ncost
			if w.m.measuring {
				w.m.stats.Polls++
				if n == 0 {
					w.m.stats.EmptyPolls++
				}
			}
			w.lastPoll = now
			if len(wakeBatch) > 0 {
				w.m.sim.After(p.FDDispatchDelay, func() {
					for _, h := range wakeBatch {
						w.enqueue(h.(*conn))
					}
				})
			} else {
				for _, h := range loopBatch {
					w.enqueue(h.(*conn))
				}
			}
			// The polling thread steals CPU from the worker: preemption
			// debt if busy, direct busy time otherwise.
			if w.busy {
				w.stolen += tickCost
			} else {
				w.busyAccum += tickCost
			}
			tick()
		})
	}
	tick()
}

// startFailoverTimer arms the heuristic failover poll (§4.3): if no poll
// happened during the last interval but requests are in flight, poll
// once.
func (w *worker) startFailoverTimer() {
	interval := w.m.cfg.Poll.FailoverInterval
	var tick func()
	tick = func() {
		w.m.sim.After(interval, func() {
			if w.m.cfg.Poll.FailoverDue(w.inflight, time.Duration(w.now()-w.lastPoll)) {
				if !w.busy {
					w.beginBusy()
					w.poll(true)
				}
				// If busy, the in-loop checks will fire soon enough.
			}
			tick()
		})
	}
	tick()
}
