package perf

import (
	"testing"
	"time"

	"qtls/internal/offload"
)

// A tiny request ring throttles async concurrency and surfaces ring-full
// retries (§3.2's submission-failure path).
func TestRingCapacityBackpressure(t *testing.T) {
	p := DefaultParams()
	p.RingCapacity = 2
	res := Run(RunOptions{
		Params: p, Config: QTLS(2), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 300, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	if res.Stats.RingFulls == 0 {
		t.Fatal("no ring-full events with a 2-slot ring under load")
	}
	if res.CPS == 0 {
		t.Fatal("system must still make progress under ring pressure")
	}
	// A large ring removes the throttle.
	wide := Run(RunOptions{
		Config: QTLS(2), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 300, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	if wide.Stats.RingFulls != 0 {
		t.Fatalf("ring-fulls with default capacity: %d", wide.Stats.RingFulls)
	}
	if wide.CPS < res.CPS {
		t.Fatalf("default ring %.0f should beat tiny ring %.0f", wide.CPS, res.CPS)
	}
}

// The failover timer fires when heuristic polling has been quiet but
// requests are in flight; at healthy load it should be rare relative to
// heuristic polls.
func TestFailoverPollsAreBackstopOnly(t *testing.T) {
	res := Run(RunOptions{
		Config: QTLS(4), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 300, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	st := res.Stats
	if st.Polls == 0 {
		t.Fatal("no polls at all")
	}
	if st.FailoverPolls > st.Polls/10 {
		t.Fatalf("failover polls %d of %d — heuristic should carry the load", st.FailoverPolls, st.Polls)
	}
}

// Notifications are delivered once per retrieved response.
func TestNotificationAccounting(t *testing.T) {
	res := Run(RunOptions{
		Config: QTLS(2), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 150, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	st := res.Stats
	// 5 offloadable ops per TLS-RSA handshake; the window boundary may
	// clip a few ops.
	perHS := float64(st.Notifications) / float64(st.Handshakes)
	if perHS < 4.5 || perHS > 5.5 {
		t.Fatalf("notifications per handshake = %.2f, want ≈5", perHS)
	}
}

// Worker utilization stays within [0,1] and approaches 1 under
// saturation for the software baseline.
func TestUtilizationBounds(t *testing.T) {
	res := Run(RunOptions{
		Config: SW(2), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 200, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	u := res.Utilization
	if u < 0.9 || u > 1.01 {
		t.Fatalf("saturated SW utilization = %.3f, want ≈1", u)
	}
}

// Straight offload (QAT+S) blocks the worker: utilization ≈ 1 even
// though most of the time is spent waiting on the device.
func TestStraightOffloadOccupiesCore(t *testing.T) {
	res := Run(RunOptions{
		Config: QATS(2), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: 200, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	if res.Utilization < 0.9 {
		t.Fatalf("blocked QAT+S utilization = %.3f, want ≈1 (core wasted waiting)", res.Utilization)
	}
}

// The open-loop latency workload produces stable latencies when the
// system is unsaturated, and the latency includes at least one RTT plus
// the asymmetric pipeline latency.
func TestLatencyFloor(t *testing.T) {
	p := DefaultParams()
	res := Run(RunOptions{
		Config: QTLS(1), Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			LatencyWorkload{Concurrency: 1, PerClientRate: 5}.Install(m)
		},
	})
	floor := p.RTT + p.PipeLatencyAsym // bare minimum: one RTT + RSA latency
	if res.AvgLatency < floor {
		t.Fatalf("latency %v below physical floor %v", res.AvgLatency, floor)
	}
	if res.AvgLatency > 5*time.Millisecond {
		t.Fatalf("unsaturated QTLS latency %v implausibly high", res.AvgLatency)
	}
}

// Seeds change arrival jitter but not the throughput regime.
func TestSeedRobustness(t *testing.T) {
	get := func(seed int64) float64 {
		res := Run(RunOptions{
			Config: QTLS(4), Seed: seed, Warmup: tWarm, Measure: tMeasure,
			Install: func(m *Model) {
				STimeWorkload{Clients: 260, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
			},
		})
		return res.CPS
	}
	a, b := get(1), get(99)
	ratio := a / b
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("seed sensitivity too high: %.0f vs %.0f", a, b)
	}
}

// Timer polling with a 1 ms interval still completes work under load
// (coalescing covers the latency), verifying the Fig. 12a convergence.
func TestSlowTimerPollingThroughputConverges(t *testing.T) {
	slow := QATA(4)
	slow.Poll.Interval = time.Millisecond
	got := cps(t, slow, ScriptSpec{Suite: SuiteRSA}, 400, 0)
	heur := cps(t, QATAH(4), ScriptSpec{Suite: SuiteRSA}, 400, 0)
	if got < 0.6*heur {
		t.Fatalf("1ms timer %.0f too far below heuristic %.0f under saturation", got, heur)
	}
}

// Configs derived from the constructors carry the right settings.
func TestConfigConstructors(t *testing.T) {
	if c := SW(4); c.UseQAT || c.Workers != 4 {
		t.Fatalf("SW = %+v", c)
	}
	if c := QATS(4); !c.UseQAT || c.Async {
		t.Fatalf("QATS = %+v", c)
	}
	if c := QATA(4); !c.Async || c.Poll.Scheme != offload.PollTimer || c.Notify != offload.NotifierFD {
		t.Fatalf("QATA = %+v", c)
	}
	if c := QATAH(4); c.Poll.Scheme != offload.PollHeuristic || c.Notify != offload.NotifierFD {
		t.Fatalf("QATAH = %+v", c)
	}
	if c := QTLS(4); c.Poll.Scheme != offload.PollHeuristic || c.Notify != offload.NotifierKernelBypass {
		t.Fatalf("QTLS = %+v", c)
	}
}

// Zero-worker configs are normalized to one worker.
func TestWorkerDefault(t *testing.T) {
	m := NewModel(DefaultParams(), Config{}, 1)
	if len(m.workers) != 1 {
		t.Fatalf("workers = %d", len(m.workers))
	}
}

// §4.1 ablation: stack async is slightly faster than fiber async (no
// fiber context swaps), but both are in the same regime.
func TestStackAsyncSlightlyFaster(t *testing.T) {
	fiber := QTLS(4)
	stack := QTLS(4)
	stack.Impl = ImplStack
	f := cps(t, fiber, ScriptSpec{Suite: SuiteRSA}, 300, 0)
	s := cps(t, stack, ScriptSpec{Suite: SuiteRSA}, 300, 0)
	if s < f {
		t.Fatalf("stack %.0f should be at least fiber %.0f", s, f)
	}
	if s > 1.1*f {
		t.Fatalf("stack %.0f implausibly far above fiber %.0f", s, f)
	}
}

// §3.3 ablation: interrupt-driven completion delivery costs throughput
// relative to heuristic polling (per-event kernel transitions).
func TestInterruptDeliveryCostsThroughput(t *testing.T) {
	intr := QTLS(8)
	intr.Poll.Scheme = offload.PollInterrupt
	intr.Name = "QAT+interrupt"
	i := cps(t, intr, ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	h := cps(t, QTLS(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	if i >= h {
		t.Fatalf("interrupt %.0f should trail heuristic polling %.0f", i, h)
	}
	if i < 0.5*h {
		t.Fatalf("interrupt %.0f implausibly slow vs %.0f", i, h)
	}
}
