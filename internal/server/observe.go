//go:build linux

package server

import (
	"strconv"
	"sync/atomic"

	"qtls/internal/metrics"
	"qtls/internal/offload"
	"qtls/internal/trace"
)

// Registry plumbing: pre-created series, WorkerStats mirroring and the
// per-iteration gauge refresh. The series names here are the public
// /metrics contract — keep them stable.

// mirroredCounter syncs one WorkerStats atomic into a monotonic registry
// counter by shipping deltas; last is only touched by the worker
// goroutine.
type mirroredCounter struct {
	src  *atomic.Int64
	ctr  *metrics.Counter
	last int64
}

// pollCauses maps the batch-histogram index to the poll trigger tag.
var pollCauses = [4]trace.Tag{trace.TagHeuristic, trace.TagTimer, trace.TagFailover, trace.TagRetry}

func batchIdx(tag trace.Tag) int {
	for i, t := range pollCauses {
		if t == tag {
			return i
		}
	}
	return 0
}

// initSeries pre-creates this worker's registry series so the hot path
// never hits the registry mutex, and so /metrics lists every series from
// the first scrape.
func (w *Worker) initSeries() {
	if w.reg == nil {
		return
	}
	wl := `{worker="` + strconv.Itoa(w.id) + `"}`
	w.histNotify = w.reg.Histogram(trace.PhaseSeriesName(trace.PhaseNotify))
	w.histPost = w.reg.Histogram(trace.PhaseSeriesName(trace.PhasePost))
	w.histLoop = w.reg.Histogram(`qtls_loop_iter_ns` + wl)
	w.histPollWait = w.reg.Histogram(`qtls_poll_wait_ns` + wl)
	for i, tag := range pollCauses {
		w.histBatch[i] = w.reg.Histogram(`qtls_poll_batch{cause="` + tag.String() + `"}`)
	}
	w.gInflight = w.reg.Gauge(`qtls_inflight` + wl)
	w.gActive = w.reg.Gauge(`qtls_active_conns` + wl)
	w.gConns = w.reg.Gauge(`qtls_conns` + wl)
	w.gWaiting = w.reg.Gauge(`qtls_async_waiting` + wl)
	w.gLag = w.reg.Gauge(`qtls_loop_lag_ns` + wl)
	// The heuristic thresholds in effect (offload.Default* unless the
	// conf overrides them), so a dashboard can plot Rtotal against the
	// line it must cross. When the adaptive controller is armed its change
	// hook refreshes the gauges (last-moving worker wins).
	w.gThreshold[offload.ThresholdAsym] = w.reg.Gauge(`qtls_poll_threshold{class="asym"}`)
	w.gThreshold[offload.ThresholdSym] = w.reg.Gauge(`qtls_poll_threshold{class="sym"}`)
	w.gThreshold[offload.ThresholdAsym].Set(int64(w.poll.AsymThreshold))
	w.gThreshold[offload.ThresholdSym].Set(int64(w.poll.SymThreshold))
	st := &w.Stats
	for _, m := range []struct {
		name string
		src  *atomic.Int64
	}{
		{"qtls_accepted", &st.Accepted},
		{"qtls_handshakes", &st.Handshakes},
		{"qtls_resumed", &st.Resumed},
		{"qtls_requests", &st.Requests},
		{"qtls_bytes_out", &st.BytesOut},
		{"qtls_async_events", &st.AsyncEvents},
		{"qtls_retry_events", &st.RetryEvents},
		{`qtls_polls{cause="heuristic"}`, &st.HeuristicPolls},
		{`qtls_polls{cause="timer"}`, &st.TimerPolls},
		{`qtls_polls{cause="failover"}`, &st.FailoverPolls},
		{"qtls_deadline_wakeups", &st.DeadlineWakeups},
		{"qtls_closed_conns", &st.ClosedConns},
		{"qtls_errors", &st.Errors},
		// Loop saturation: iterations per handshake and how parks end are
		// one scrape away (qtls_loop_iters / qtls_handshakes).
		{"qtls_loop_iters", &st.LoopIters},
		{"qtls_parks", &st.Parks},
		{`qtls_park_wakes{by="device"}`, &st.ParkDeviceWakes},
		{`qtls_park_wakes{by="socket"}`, &st.ParkSocketWakes},
		{`qtls_park_wakes{by="timeout"}`, &st.ParkTimeouts},
		// Admission control: the total plus a per-site breakdown. Both
		// shed stats feed qtls_shed_total — delta shipping makes multiple
		// mirrors into one counter additive, not clobbering.
		{"qtls_shed_total", &st.ShedAccepts},
		{"qtls_shed_total", &st.ShedKeepalive},
		{`qtls_sheds{site="accept"}`, &st.ShedAccepts},
		{`qtls_sheds{site="keepalive"}`, &st.ShedKeepalive},
	} {
		w.mirrors = append(w.mirrors, mirroredCounter{src: m.src, ctr: w.reg.Counter(m.name)})
	}
	for i := range st.DeadlineExpired {
		name := `qtls_deadline_expired{class="` + offload.DeadlineClass(i).String() + `"}`
		w.mirrors = append(w.mirrors, mirroredCounter{src: &st.DeadlineExpired[i], ctr: w.reg.Counter(name)})
	}
	w.gDrain = w.reg.Gauge("qtls_drain_active")
}

// mirrorStats ships WorkerStats deltas into the shared registry. Only
// the worker goroutine calls it, so `last` needs no synchronization.
// Counters are shared across workers (no worker label), so deltas — not
// absolute stores — keep them correct.
func (w *Worker) mirrorStats() {
	for i := range w.mirrors {
		m := &w.mirrors[i]
		if v := m.src.Load(); v != m.last {
			m.ctr.Add(v - m.last)
			m.last = v
		}
	}
}

// updateGauges publishes the event-loop state the heuristic constraints
// read (§4.3): Rtotal vs the thresholds, TCactive vs live conns.
func (w *Worker) updateGauges() {
	if w.gInflight == nil {
		return
	}
	inflight := 0
	if w.eng != nil {
		inflight = w.eng.InflightTotal()
	}
	w.gInflight.Set(int64(inflight))
	w.gActive.Set(int64(w.activeConns))
	w.gConns.Set(int64(len(w.conns)))
	w.gWaiting.Set(int64(w.asyncWaiting))
	if w.gDrain != nil {
		// Unlabeled, server-wide: Shutdown drains every worker together.
		if w.draining.Load() {
			w.gDrain.Set(1)
		} else {
			w.gDrain.Set(0)
		}
	}
}
