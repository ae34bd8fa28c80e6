//go:build linux

package server

import (
	"time"

	"qtls/internal/flight"
	"qtls/internal/netpoll"
	"qtls/internal/offload"
	"qtls/internal/trace"
)

// Connection-lifecycle policy driver: the worker-side consumer of
// offload.DeadlinePolicy and offload.OverloadPolicy. Arming decisions,
// expiry handling, admission control and the graceful-drain sweep all
// run on the worker goroutine; only the Drain trigger crosses in.

// armDeadline arms class for c, replacing whatever deadline was armed.
// A class with a non-positive timeout disarms instead. Re-arming the
// same class is suppressed while the deadline would move by less than a
// wheel tick, so per-read header refreshes cost one comparison. A
// deadline no earlier than the conn's live wheel entry keeps that entry:
// it comes due first and re-inserts itself until dlAt (deadlineWheel.
// advance), so a keepalive conn holds one entry however many requests it
// serves. Only an earlier deadline strands the entry for a new one.
func (w *Worker) armDeadline(c *conn, class offload.DeadlineClass) {
	d := w.cfg.Deadlines.Timeout(class)
	if d <= 0 {
		w.disarmDeadline(c)
		return
	}
	deadline := time.Now().Add(d)
	if c.dlArmed && c.dlClass == class && deadline.Sub(c.dlAt) < w.wheel.tick {
		return
	}
	c.dlArmed = true
	c.dlClass = class
	c.dlAt = deadline
	if !c.dlDue.IsZero() && !deadline.Before(c.dlDue) {
		return
	}
	c.dlGen++ // strands the previous wheel entry
	w.wheel.add(c)
}

// disarmDeadline lazily cancels c's armed deadline.
func (w *Worker) disarmDeadline(c *conn) {
	if c.dlArmed {
		c.dlArmed = false
		c.dlGen++
		c.dlDue = time.Time{}
	}
}

// rearmDeadline re-derives which lifecycle deadline covers c from its
// event-loop state, in priority order: an unfinished handshake keeps its
// accept-time deadline (never refreshed); buffered output awaits the
// peer's window (write-stall); an in-progress request refreshes the
// header deadline; anything else idles under the keepalive deadline.
// invoke() calls this after every handler run — the same places TCactive
// is maintained.
func (w *Worker) rearmDeadline(c *conn) {
	switch {
	case !c.tls.HandshakeComplete():
		if c.dlArmed && c.dlClass == offload.DeadlineHandshake {
			return // armed at accept; a handshake never earns more time
		}
		w.armDeadline(c, offload.DeadlineHandshake)
	case c.draining || c.nc.HasPending():
		w.armDeadline(c, offload.DeadlineWrite)
	case c.active || len(c.reqBuf) > 0 || len(c.writeHdr) > 0:
		w.armDeadline(c, offload.DeadlineHeader)
	default:
		w.armDeadline(c, offload.DeadlineKeepalive)
	}
}

// advanceWheel walks the elapsed wheel ticks, expiring due deadlines.
func (w *Worker) advanceWheel() {
	if w.wheel.live == 0 {
		// Still move the cursor so a later burst of arms lands in the
		// right slots relative to `now`.
		w.wheel.advance(time.Now(), nil)
		return
	}
	w.wheel.advance(time.Now(), w.expireDeadline)
}

// expireDeadline enforces one expired lifecycle deadline. Idle keepalive
// connections get a TLS close-notify (an orderly server-initiated
// close); everything else — stalled handshakes, half-received headers,
// stuck writes — is cut. Connections parked on an offload go through
// closeConn's cancel path so the engine's inflight accounting and
// breakers stay consistent.
func (w *Worker) expireDeadline(c *conn) {
	class := c.dlClass
	w.disarmDeadline(c)
	w.Stats.DeadlineExpired[class].Add(1)
	w.fl.Note(flight.KindDeadline, uint8(class), trace.OpNone, 0, int64(c.fd))
	if class == offload.DeadlineKeepalive && !c.asyncPending {
		w.closeGracefully(c, trace.TagNone)
		return
	}
	w.closeConn(c)
}

// closeGracefully queues a TLS close-notify and closes once it reaches
// the kernel; buffered output lingers under a write-stall deadline.
func (w *Worker) closeGracefully(c *conn, tag trace.Tag) {
	if c.closed {
		return
	}
	if w.tr.Active() {
		w.tr.Record(trace.PhaseShed, trace.OpNone, tag, int64(c.fd), time.Now(), 0)
	}
	c.tls.Close() // queues the close-notify alert
	if c.nc.Flush(); c.nc.HasPending() {
		c.draining = true
		w.updateWriteInterest(c)
		w.armDeadline(c, offload.DeadlineWrite)
		return
	}
	w.closeConn(c)
}

// admissionPressure returns the inflight count and ring capacity the
// overload policy should judge: under a multi-device placement the
// pool-wide aggregate (work this worker sheds can land on any device,
// and other workers' load fills the same rings), otherwise this worker's
// own engine — the exact legacy view.
func (w *Worker) admissionPressure() (inflight, ringCap int) {
	if w.poolWide {
		return w.pool.TotalPressure()
	}
	if w.eng != nil {
		inflight = w.eng.InflightTotal()
	}
	return inflight, w.ringCap
}

// shedAccept decides admission for a just-accepted connection and, when
// shedding, aborts it with a TCP reset — the whole exchange costs the
// server an accept and a close, and the client finds out immediately.
func (w *Worker) shedAccept(nc *netpoll.Conn) bool {
	inflight, ringCap := w.admissionPressure()
	if !w.cfg.Overload.ShedAccept(inflight, ringCap, len(w.conns)) {
		return false
	}
	w.Stats.ShedAccepts.Add(1)
	w.fl.Note(flight.KindShed, flight.ShedAccept, trace.OpNone, 0, int64(nc.FD()))
	if w.tr.Active() {
		w.tr.Record(trace.PhaseShed, trace.OpNone, trace.TagNone, int64(nc.FD()), time.Now(), 0)
	}
	nc.Abort()
	return true
}

// shedKeepalive decides whether c's current response should carry
// Connection: close instead of offering keepalive reuse.
func (w *Worker) shedKeepalive(c *conn) bool {
	inflight, ringCap := w.admissionPressure()
	if !w.cfg.Overload.ShedKeepalive(inflight, ringCap, len(w.conns)) {
		return false
	}
	w.Stats.ShedKeepalive.Add(1)
	w.fl.Note(flight.KindShed, flight.ShedKeepalive, trace.OpNone, 0, int64(c.fd))
	if w.tr.Active() {
		w.tr.Record(trace.PhaseShed, trace.OpNone, trace.TagNone, int64(c.fd), time.Now(), 0)
	}
	return true
}

// Drain asks the worker to shut down gracefully: stop accepting, let
// admitted work and in-flight QAT responses complete, close-notify idle
// keepalive connections, then exit the loop.
// Safe to call from any goroutine; Stop() remains the hard cutoff.
func (w *Worker) Drain() {
	if w.draining.CompareAndSwap(false, true) {
		w.wake()
	}
}

// Draining reports whether a graceful drain has been requested.
func (w *Worker) Draining() bool { return w.draining.Load() }

// drainStep runs one drain iteration on the worker goroutine and
// reports whether the worker is fully drained and may tear down.
func (w *Worker) drainStep() bool {
	if !w.listenerOff {
		// Stop accepting first: the listening socket leaves the epoll set
		// and closes, so new SYNs land on other workers or are refused.
		w.poller.Del(w.listener.FD())
		w.listener.Close()
		w.listenerOff = true
		w.fl.Note(flight.KindDrain, flight.DrainStart, trace.OpNone, 0, int64(len(w.conns)))
	}
	for _, c := range w.conns {
		if c.asyncPending || c.draining {
			continue // a QAT response or a queued close-notify completes it
		}
		if c.active || len(c.reqBuf) > 0 || len(c.writeHdr) > 0 || c.nc.HasPending() {
			continue // admitted work in progress; its write handler closes after it
		}
		if !c.tls.HandshakeComplete() {
			// Mid-handshake and idle: nothing admitted yet, cut it.
			w.closeConn(c)
			continue
		}
		w.closeGracefully(c, trace.TagDrain)
	}
	if len(w.conns) > 0 {
		return false
	}
	w.fl.Note(flight.KindDrain, flight.DrainDone, trace.OpNone, 0, 0)
	return true
}
