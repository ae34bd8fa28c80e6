//go:build linux

package server

import (
	"time"

	"qtls/internal/offload"
	"qtls/internal/trace"
)

// The poll/failover/deadline policy driver: the worker-side consumer of
// the shared offload.PollPolicy (internal/offload). The decisions — when
// the heuristic constraints demand a poll, when the failover timer is due
// — live in the policy value; this file feeds it the live inputs (Rtotal,
// in-flight asymmetric count, TCactive) and performs the polls.

// pollEngine drains QAT responses, attributing the poll to its trigger
// with a span (arg = batch size; the span subscriber derives the
// per-cause batch-size histogram from it). The lastPoll / per-cause stat
// bookkeeping stays at the call sites, which have different rules for it.
func (w *Worker) pollEngine(tag trace.Tag) int {
	var start time.Time
	if w.tr.Active() {
		start = time.Now()
	}
	n := w.eng.Poll(0)
	w.work += n
	if !start.IsZero() {
		w.tr.Record(trace.PhasePoll, trace.OpNone, tag, int64(n), start, time.Since(start))
	}
	return n
}

// heuristicCheck implements the efficiency and timeliness constraints of
// the heuristic polling scheme (§3.3, §4.3). The decision itself is
// offload.PollPolicy.ShouldPoll; this wrapper supplies the live inputs.
func (w *Worker) heuristicCheck() {
	if w.eng == nil || w.cfg.Poll.Scheme != offload.PollHeuristic {
		return
	}
	if !w.cfg.Poll.ShouldPoll(w.eng.InflightTotal(), w.eng.InflightAsym(), w.activeConns) {
		return
	}
	w.pollEngine(trace.TagHeuristic)
	w.lastPoll = time.Now()
	w.Stats.HeuristicPolls.Add(1)
}

// failoverCheck is the failover timer: if no heuristic poll happened
// during the last interval but requests are in flight, poll once (§4.3).
func (w *Worker) failoverCheck() {
	if w.eng == nil || w.cfg.Poll.Scheme != offload.PollHeuristic {
		return
	}
	if !w.cfg.Poll.FailoverDue(w.eng.InflightTotal(), time.Since(w.lastPoll)) {
		return
	}
	w.pollEngine(trace.TagFailover)
	w.lastPoll = time.Now()
	w.Stats.FailoverPolls.Add(1)
}

// deadlineCheck resumes paused offload jobs whose op deadline has passed
// without a response — the graceful-degradation path for a sick device.
// The forced resume re-enters the engine, which abandons the offload and
// computes the result in software (see engine.Config.OpTimeout). If the
// engine's own deadline has not quite expired yet the job re-pauses and
// is re-resumed a millisecond later.
func (w *Worker) deadlineCheck() {
	if w.cfg.OpTimeout <= 0 || w.asyncWaiting == 0 {
		return
	}
	now := time.Now()
	var due []*conn
	for _, c := range w.conns {
		if c.asyncPending && !c.asyncDeadline.IsZero() && now.After(c.asyncDeadline) {
			due = append(due, c)
		}
	}
	for _, c := range due {
		c.asyncDeadline = now.Add(time.Millisecond)
		w.Stats.DeadlineWakeups.Add(1)
		w.resumeAsync(c)
	}
}
