//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qtls/internal/trace"
)

// span is one client-side span of the traced pass: a layer boundary
// crossed by one operation. Spans of one operation share its id; the
// step spans name the operation span as their parent.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// steps are the client-side layer boundaries of an operation, in order.
// Their durations add up to the operation's latency.
var steps = []struct {
	name     string
	from, to func(opSample) time.Time
}{
	{"dial", func(s opSample) time.Time { return s.start }, func(s opSample) time.Time { return s.dialed }},
	{"handshake", func(s opSample) time.Time { return s.dialed }, func(s opSample) time.Time { return s.shaken }},
	{"request_ttfb", func(s opSample) time.Time { return s.shaken }, func(s opSample) time.Time { return s.firstByte }},
	{"body", func(s opSample) time.Time { return s.firstByte }, func(s opSample) time.Time { return s.bodyDone }},
	{"close", func(s opSample) time.Time { return s.bodyDone }, func(s opSample) time.Time { return s.end }},
}

// stepSamples returns, per step name, the durations in µs seen in the
// pass. Steps an operation did not take have no extent and are left out:
// a keep-alive request has no dial, handshake or close, and a keep-alive
// connection set-up (passed in setups) has only those.
func stepSamples(samples, setups []opSample) map[string][]float64 {
	out := make(map[string][]float64, len(steps))
	for _, src := range [][]opSample{samples, setups} {
		for _, s := range src {
			for _, st := range steps {
				if from, to := st.from(s), st.to(s); !from.IsZero() && to.After(from) {
					out[st.name] = append(out[st.name], float64(to.Sub(from))/1e3)
				}
			}
		}
	}
	return out
}

// writeSpans writes the pass's client spans as JSON lines: one "op" span
// per operation (or per keep-alive connection) and one child span per
// step it took.
func writeSpans(path string, samples, setups []opSample) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	id := 0
	for _, src := range [][]opSample{samples, setups} {
		for _, s := range src {
			id++
			if err := enc.Encode(span{Op: id, Name: "op", Start: s.start.UnixNano(), End: s.end.UnixNano()}); err != nil {
				return err
			}
			for _, st := range steps {
				from, to := st.from(s), st.to(s)
				if from.IsZero() || !to.After(from) {
					continue
				}
				if err := enc.Encode(span{Op: id, Name: st.name, Parent: "op", Start: from.UnixNano(), End: to.UnixNano()}); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// share is 100·part/whole, 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// layerValues derives the per-layer metrics of one workload from the
// untraced reference window, the traced pass and the probe costs.
func layerValues(w workload, ref, traced window, setups []opSample, probes map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for k, x := range probes {
		v[k] = x
	}
	ops := traced.ops()
	if ops == 0 {
		return v
	}
	b, a := traced.before, traced.after
	perOp := func(x int64) float64 { return float64(x) / ops }
	samples := traced.samples()

	for name, d := range stepSamples(samples, setups) {
		v["loadgen."+name+"_p50_us"] = median(d)
	}
	lat := make([]float64, len(samples))
	ttfb := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.end.Sub(s.start)) / 1e6
		ttfb[i] = float64(s.firstByte.Sub(s.start)) / 1e6
	}
	v["loadgen.lat_p99_ms"] = percentile(sorted(lat), 0.99)
	v["loadgen.ttfb_p99_ms"] = percentile(sorted(ttfb), 0.99)
	var genCPU int64
	var speeds []float64
	for _, sl := range traced.slices {
		genCPU += sl.genCPUUs
		speeds = append(speeds, sl.speed)
	}
	v["loadgen.cpu_us_per_op"] = perOp(genCPU)
	v["loadgen.slice_rate_cv"] = cv(traced.rates())
	v["host.steal_pct"] = traced.stealPct
	v["host.ref_speed"] = median(speeds)

	loop := a.Hists[`qtls_loop_iter_ns{worker="0"}`]
	wait := a.Hists[`qtls_poll_wait_ns{worker="0"}`]
	v["server.loop_iters_per_op"] = perOp(loop.Count)
	v["server.loop_iter_p50_us"] = loop.P50 / 1e3
	v["server.poll_wait_share"] = share(wait.Sum, float64(a.WallNs-b.WallNs))
	v["server.gc_cycles_per_kop"] = 1000 * perOp(int64(a.NumGC-b.NumGC))
	v["server.gc_pause_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	v["server.rss_peak_mb"] = float64(a.MaxRSSKB) / 1024
	v["server.goroutines_end"] = float64(a.Goroutines)

	polls := a.Engine.Polls - b.Engine.Polls
	v["engine.submits_per_op"] = perOp(a.Engine.Submitted - b.Engine.Submitted)
	v["engine.polls_per_op"] = perOp(polls)
	v["engine.empty_poll_ratio"] = share(float64(a.Engine.PollsEmpty-b.Engine.PollsEmpty), float64(polls))
	v["engine.ring_fulls"] = float64(a.Engine.RingFulls - b.Engine.RingFulls)
	v["engine.retries"] = float64(a.Engine.Retries - b.Engine.Retries)
	v["engine.sw_fallbacks"] = float64(a.Engine.SWFallbacks - b.Engine.SWFallbacks)

	v["qat.doorbells_per_op"] = perOp(a.Qat.Doorbells - b.Qat.Doorbells)
	v["qat.mean_poll_batch"] = 0
	if nonEmpty := (a.Qat.Polls - b.Qat.Polls) - (a.Qat.EmptyPolls - b.Qat.EmptyPolls); nonEmpty > 0 {
		v["qat.mean_poll_batch"] = float64(a.Qat.Dequeued-b.Qat.Dequeued) / float64(nonEmpty)
	}
	v["qat.max_poll_batch"] = float64(a.Qat.MaxBatch)

	heur := a.Server.HeuristicPolls - b.Server.HeuristicPolls
	fail := a.Server.FailoverPolls - b.Server.FailoverPolls
	timer := a.Server.TimerPolls - b.Server.TimerPolls
	v["offload.polls_heuristic_share"] = share(float64(heur), float64(heur+fail+timer))
	v["offload.polls_failover_share"] = share(float64(fail), float64(heur+fail+timer))
	v["offload.async_events_per_op"] = perOp(a.Server.AsyncEvents - b.Server.AsyncEvents)

	for _, ph := range trace.OffloadPhases() {
		v["trace.phase_"+ph.String()+"_p50_us"] = a.Hists[trace.PhaseSeriesName(ph)].P50 / 1e3
	}
	if refRate := median(ref.rates()); refRate > 0 {
		v["trace.overhead_pct"] = 100 * (refRate - median(traced.rates())) / refRate
	}
	v["closure.pct"] = closurePct(w, v, float64(a.CPUUs-b.CPUUs)/ops+v["loadgen.cpu_us_per_op"])
	return v
}

// closurePct is the ROADMAP #1 closure check: the share of the measured
// CPU per operation (server + generator, traced pass) that the probe
// costs times the per-operation counts add up to. The model is the steps
// an operation is known to take, so what it leaves out is the finding.
func closurePct(w workload, v map[string]float64, measuredUs float64) float64 {
	records := float64((w.bodyLen + 16383) / 16384)
	model := records * (v["minitls.record_write_16k_us"] + v["minitls.record_read_16k_us"])
	if w.bodyLen < 16384 {
		model *= float64(w.bodyLen) / 16384 // a short record costs about its share of a full one
	}
	if !w.keepalive {
		model += v["netpoll.conn_cycle_us"]
		if w.resume {
			model += v["minitls.hs_resumed_pair_us"]
		} else {
			model += v["minitls.hs_full_pair_us"]
		}
	}
	model += v["engine.submits_per_op"] * v["engine.roundtrip_us"]
	return share(model, measuredUs)
}

// runLayers is the traced run: one set-up on a child that owns a span
// recorder, an untraced reference window, the traced pass with client
// spans kept, then the layer probes.
func runLayers(w workload, seed int64, total time.Duration, traceOut string) *result {
	res := newResult()
	start := time.Now()
	defer func() {
		res.elapsed = time.Since(start)
		res.Correct = len(res.problems) == 0
	}()
	pass := time.Duration(float64(total)*tracedShare) / sliceLen * sliceLen
	if pass < sliceLen {
		pass = sliceLen
	}
	host, err := newReference()
	if err != nil {
		res.fail("%v", err)
		return res
	}
	defer host.close()
	s, err := openSession(w, seed, true, host, res)
	if err != nil {
		res.fail("set-up: %v", err)
		return res
	}
	ref, traced, setups, err := tracedPasses(s, pass, res)
	s.close(res)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.samples = len(traced.samples())
	if traced.after.Spans == traced.before.Spans && w.config != "SW" {
		res.fail("traced pass recorded no server spans")
	}
	probes, err := runProbes(probeDur)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	vals := layerValues(w, ref, traced, setups, probes)
	res.set(perLayer, vals)
	if c := vals["closure.pct"]; c < 90 {
		res.notes = append(res.notes, fmt.Sprintf(
			"finding: closure: the probed layer costs account for %.0f%% of the measured CPU per operation (below 90%%: the rest is unattributed)", c))
	}
	if err := writeSpans(traceOut, traced.samples(), setups); err != nil {
		res.fail("write spans: %v", err)
	}
	return res
}

// tracedPasses runs the reference window and the traced pass on one
// session and returns both, with the connection set-ups a keep-alive
// workload made inside the traced pass.
func tracedPasses(s *session, pass time.Duration, res *result) (ref, traced window, setups []opSample, err error) {
	if ref, err = s.measure(pass, res); err != nil {
		return
	}
	// A keep-alive workload reconnects inside the traced pass so that its
	// dial, handshake and close are observed at all.
	for _, c := range s.clients {
		c.hangUp()
		c.setups = nil
	}
	if _, err = s.child.command("trace on"); err != nil {
		return
	}
	traced, err = s.measure(pass, res)
	for _, c := range s.clients {
		c.hangUp()
		setups = append(setups, c.setups...)
	}
	if _, offErr := s.child.command("trace off"); err == nil {
		err = offErr
	}
	return
}
