//go:build linux

package main

import (
	"time"

	"qtls/internal/qat"
)

// Everything a later comparison must hold identical on both sides is a
// constant here, not a flag: client count, durations, warm-up counts,
// the device spec. BENCHMARK.json repeats the workload and metric names;
// TestBenchmarkJSONMatchesSpec keeps the two lists equal.

const (
	// clients is the closed-loop connection count: one per core of the
	// 2-core reference box, so the system is CPU-saturated.
	clients = 2
	// workers is the server's event-loop count. One: with two workers and
	// two keep-alive connections SO_REUSEPORT hashes both onto one worker
	// about half the time and the bulk rate turns bimodal.
	workers = 1
	// runSeconds is the measured window (BENCHMARK.json run_seconds).
	runSeconds = 20
	// setupRounds is how many times an untraced run sets up (spawn,
	// listen, warm up); setup_s is the median of them.
	setupRounds = 3
	// sliceLen is the length of one slice of a measured window. The timed
	// metrics are medians over the slices, so one stolen second does not
	// move them, and each slice is scaled by the host speed around it.
	sliceLen = 250 * time.Millisecond
	// refBurstUnits is how many reference units each generator goroutine
	// runs between two slices (about 14 ms; see ref.go).
	refBurstUnits = 10
	// refSpeed is the host speed every timing is scaled to, in reference
	// units per CPU-second: about what the 2-core reference box does on a
	// good minute, so scaled and raw figures are of one size there.
	refSpeed = 700.0
	// warmupChunks is how many pieces a warm-up is timed in (see
	// openSession).
	warmupChunks = 10
	// probeDur is the timed length of one layer probe in a traced run.
	probeDur = 500 * time.Millisecond
	// probeBatches is how many batches a probe splits its time into; the
	// reported cost is the median batch mean.
	probeBatches = 20
	// opTimeout bounds every client operation.
	opTimeout = 10 * time.Second
	// sessionsPerClient is how many tickets each client collects before
	// it starts resuming; the seed picks which one a connection offers.
	sessionsPerClient = 8
	// localAddrs is how many 127.0.1.x source addresses each handshake
	// client rotates over, so ~2 000 conn/s of TIME_WAIT sockets never
	// crowd one address's ephemeral-port range.
	localAddrs = 32
)

// A traced run splits its --seconds between an untraced reference window
// and the traced pass (each this share); the layer probes take the rest.
const tracedShare = 0.3

// deviceSpec is the simulated QAT device of every *_qtls workload.
var deviceSpec = qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 128}

// workload is one traffic mix.
type workload struct {
	name      string
	config    string // server offload configuration: "QTLS" or "SW"
	bodyLen   int    // GET /<bodyLen>
	resume    bool   // every measured connection resumes by ticket
	keepalive bool   // one connection per client, requests repeat on it
	warmupOps int    // fixed-count warm-up, part of setup_s
	why       string
}

var workloads = []workload{
	{
		name: "hs_full_qtls", config: "QTLS", bodyLen: 1024, warmupOps: 1000,
		why: "connect + full ECDHE-RSA handshake + GET /1024 + close, async offload on: every handshake layer does its most work",
	},
	{
		name: "hs_full_sw", config: "SW", bodyLen: 1024, warmupOps: 1000,
		why: "same traffic, software crypto: bypasses engine/asynclib/qat/offload, so a change there must leave it unmoved",
	},
	{
		name: "hs_resumed_qtls", config: "QTLS", bodyLen: 1024, resume: true, warmupOps: 3000,
		why: "every connection resumes by ticket: no asymmetric op, per-connection cost and the sym-class poll path dominate",
	},
	{
		name: "bulk_256k_qtls", config: "QTLS", bodyLen: 262144, keepalive: true, warmupOps: 800,
		why: "two keep-alive connections repeat GET /262144: record seal, write buffering and one cipher offload per 16 KB record",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric. bound is the share of the median by which
// an end-to-end metric may worsen before it counts as a regression (0 for
// per-layer metrics, which are not gated).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"ttfb_p50_ms", "ms", "lower", 0.20},
	{"srv_cpu_us_per_op", "us", "lower", 0.20},
	{"srv_allocs_per_op", "count", "lower", 0.25},
	{"srv_alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer is printed by the traced run. The layer is the package name
// before the first dot; README.md says which end-to-end metric each one
// should move.
var perLayer = []metricDef{
	{"loadgen.dial_p50_us", "us", "lower", 0},
	{"loadgen.handshake_p50_us", "us", "lower", 0},
	{"loadgen.request_ttfb_p50_us", "us", "lower", 0},
	{"loadgen.body_p50_us", "us", "lower", 0},
	{"loadgen.close_p50_us", "us", "lower", 0},
	{"loadgen.lat_p99_ms", "ms", "lower", 0},
	{"loadgen.ttfb_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_us_per_op", "us", "lower", 0},
	{"loadgen.slice_rate_cv", "%", "lower", 0},
	{"host.steal_pct", "%", "lower", 0},
	{"host.ref_speed", "1/s", "higher", 0},

	{"server.loop_iters_per_op", "count", "lower", 0},
	{"server.loop_iter_p50_us", "us", "lower", 0},
	{"server.poll_wait_share", "%", "higher", 0},
	{"server.gc_cycles_per_kop", "count", "lower", 0},
	{"server.gc_pause_ms", "ms", "lower", 0},
	{"server.rss_peak_mb", "MB", "lower", 0},
	{"server.goroutines_end", "count", "lower", 0},

	{"engine.submits_per_op", "count", "lower", 0},
	{"engine.polls_per_op", "count", "lower", 0},
	{"engine.empty_poll_ratio", "%", "lower", 0},
	{"engine.ring_fulls", "count", "lower", 0},
	{"engine.retries", "count", "lower", 0},
	{"engine.sw_fallbacks", "count", "lower", 0},
	{"engine.roundtrip_us", "us", "lower", 0},
	{"engine.roundtrip_allocs", "count", "lower", 0},

	{"qat.doorbells_per_op", "count", "lower", 0},
	{"qat.mean_poll_batch", "count", "higher", 0},
	{"qat.max_poll_batch", "count", "higher", 0},
	{"qat.submit_poll_ns", "ns", "lower", 0},
	{"qat.submit_batch48_ns_per_op", "ns", "lower", 0},

	{"offload.polls_heuristic_share", "%", "higher", 0},
	{"offload.polls_failover_share", "%", "lower", 0},
	{"offload.async_events_per_op", "count", "lower", 0},
	{"offload.should_poll_ns", "ns", "lower", 0},
	{"offload.notify_bypass_ns", "ns", "lower", 0},
	{"offload.notify_fd_ns", "ns", "lower", 0},

	{"trace.phase_pre_p50_us", "us", "lower", 0},
	{"trace.phase_retrieve_p50_us", "us", "lower", 0},
	{"trace.phase_notify_p50_us", "us", "lower", 0},
	{"trace.phase_post_p50_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.record_enabled_ns", "ns", "lower", 0},

	{"minitls.hs_full_pair_us", "us", "lower", 0},
	{"minitls.hs_full_pair_allocs", "count", "lower", 0},
	{"minitls.hs_resumed_pair_us", "us", "lower", 0},
	{"minitls.hs_resumed_pair_allocs", "count", "lower", 0},
	{"minitls.record_write_16k_us", "us", "lower", 0},
	{"minitls.record_write_16k_allocs", "count", "lower", 0},
	{"minitls.record_read_16k_us", "us", "lower", 0},
	{"minitls.record_read_16k_allocs", "count", "lower", 0},

	{"netpoll.conn_cycle_us", "us", "lower", 0},
	{"netpoll.conn_cycle_allocs", "count", "lower", 0},
	{"netpoll.wait_ready_ns", "ns", "lower", 0},

	{"asynclib.pause_resume_ns", "ns", "lower", 0},
	{"record.stream_seal_16k_us", "us", "lower", 0},
	{"record.stream_seal_16k_allocs", "count", "lower", 0},
	{"metrics.histogram_observe_ns", "ns", "lower", 0},
	{"flight.window_observe_ns", "ns", "lower", 0},

	{"closure.pct", "%", "higher", 0},
}
