//go:build linux

package server

import (
	"strconv"
	"sync/atomic"

	"qtls/internal/offload"
)

// Registry plumbing: the worker's series, and the per-iteration gauge
// refresh. The series names here are the public /metrics contract — keep
// them stable. No count is copied into the registry: each counter is a
// read, at scrape time, of the atomic that keeps it.

// initSeries registers this worker's series — gauges pre-created so the
// hot path never hits the registry mutex, and counters read from
// WorkerStats — so /metrics lists every series from the first scrape.
func (w *Worker) initSeries() {
	if w.reg == nil {
		return
	}
	wl := `{worker="` + strconv.Itoa(w.id) + `"}`
	w.histLoop = w.reg.Histogram(`qtls_loop_iter_ns` + wl)
	w.histPollWait = w.reg.Histogram(`qtls_poll_wait_ns` + wl)
	w.gInflight = w.reg.Gauge(`qtls_inflight` + wl)
	w.gActive = w.reg.Gauge(`qtls_active_conns` + wl)
	w.gConns = w.reg.Gauge(`qtls_conns` + wl)
	w.gWaiting = w.reg.Gauge(`qtls_async_waiting` + wl)
	w.gLag = w.reg.Gauge(`qtls_loop_lag_ns` + wl)
	// The heuristic thresholds in effect (offload.Default* unless the
	// conf overrides them), so a dashboard can plot Rtotal against the
	// line it must cross.
	w.reg.Gauge(`qtls_poll_threshold{class="asym"}`).Set(int64(w.cfg.Poll.AsymThreshold))
	w.reg.Gauge(`qtls_poll_threshold{class="sym"}`).Set(int64(w.cfg.Poll.SymThreshold))
	w.gDrain = w.reg.Gauge("qtls_drain_active")
	// Counters carry no worker label: every worker registers its read
	// under the same name, and the registry adds them up.
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
		// Admission control: the total plus a per-site breakdown.
		{"qtls_shed_total", &st.ShedAccepts},
		{"qtls_shed_total", &st.ShedKeepalive},
		{`qtls_sheds{site="accept"}`, &st.ShedAccepts},
		{`qtls_sheds{site="keepalive"}`, &st.ShedKeepalive},
	} {
		w.reg.CounterFunc(m.name, m.src.Load)
	}
	for i := range st.DeadlineExpired {
		w.reg.CounterFunc(`qtls_deadline_expired{class="`+offload.DeadlineClass(i).String()+`"}`, st.DeadlineExpired[i].Load)
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
