package perf

import (
	"fmt"
	"testing"
	"time"

	"qtls/internal/offload"
)

// Ablation benchmarks for the design choices DESIGN.md calls out
// ("Ablations beyond the paper"): heuristic thresholds, ring capacity,
// engine count, notification scheme, pause implementation, interrupt vs
// polling. Each runs the calibrated model at smoke scale and reports CPS
// as a custom metric:
//
//	go test -run '^$' -bench Ablation -benchtime 1x ./internal/perf

func quickCPS(cfg Config, clients int) float64 {
	res := Run(RunOptions{
		Config:  cfg,
		Warmup:  150 * time.Millisecond,
		Measure: 200 * time.Millisecond,
		Install: func(m *Model) {
			STimeWorkload{Clients: clients, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
		},
	})
	return res.CPS
}

// BenchmarkAblationHeuristicThresholds sweeps the efficiency thresholds
// (qat_heuristic_poll_asym_threshold): too small polls too often, too
// large risks timeliness.
func BenchmarkAblationHeuristicThresholds(b *testing.B) {
	for _, thr := range []int{1, 8, 24, 48, 96} {
		b.Run(fmt.Sprintf("asym=%d", thr), func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				cfg := QTLS(8)
				cfg.Poll.AsymThreshold = thr
				cfg.Poll.SymThreshold = max(thr/2, 1)
				cps = quickCPS(cfg, 420)
			}
			b.ReportMetric(cps, "cps")
		})
	}
}

// BenchmarkAblationRingCapacity sweeps the request-ring capacity: a tiny
// ring forces submission retries and throttles concurrency.
func BenchmarkAblationRingCapacity(b *testing.B) {
	for _, capN := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("ring=%d", capN), func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.RingCapacity = capN
				res := Run(RunOptions{
					Params:  p,
					Config:  QTLS(8),
					Warmup:  150 * time.Millisecond,
					Measure: 200 * time.Millisecond,
					Install: func(m *Model) {
						STimeWorkload{Clients: 420, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
					},
				})
				cps = res.CPS
			}
			b.ReportMetric(cps, "cps")
		})
	}
}

// BenchmarkAblationEngines sweeps the per-endpoint PKE engine count (the
// card's parallel capacity).
func BenchmarkAblationEngines(b *testing.B) {
	for _, engines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("engines=%d", engines), func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				p := DefaultParams()
				p.AsymEnginesPerEndpoint = engines
				res := Run(RunOptions{
					Params:  p,
					Config:  QTLS(16),
					Warmup:  150 * time.Millisecond,
					Measure: 200 * time.Millisecond,
					Install: func(m *Model) {
						STimeWorkload{Clients: 740, Spec: ScriptSpec{Suite: SuiteRSA}}.Install(m)
					},
				})
				cps = res.CPS
			}
			b.ReportMetric(cps, "cps")
		})
	}
}

// BenchmarkAblationNotification isolates FD vs kernel-bypass notification
// at fixed heuristic polling (QAT+AH vs QTLS).
func BenchmarkAblationNotification(b *testing.B) {
	for _, cfg := range []Config{QATAH(8), QTLS(8)} {
		b.Run(cfg.Name, func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				cps = quickCPS(cfg, 420)
			}
			b.ReportMetric(cps, "cps")
		})
	}
}

// BenchmarkAblationAsyncImpl compares the fiber and stack crypto-pause
// implementations (§4.1: stack is slightly faster but intrusive).
func BenchmarkAblationAsyncImpl(b *testing.B) {
	for _, impl := range []struct {
		name string
		impl AsyncImpl
	}{{"fiber", ImplFiber}, {"stack", ImplStack}} {
		b.Run(impl.name, func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				cfg := QTLS(8)
				cfg.Impl = impl.impl
				cps = quickCPS(cfg, 420)
			}
			b.ReportMetric(cps, "cps")
		})
	}
}

// BenchmarkAblationInterruptVsPolling compares interrupt-driven response
// delivery against heuristic polling (§3.3's design rationale).
func BenchmarkAblationInterruptVsPolling(b *testing.B) {
	intr := QTLS(8)
	intr.Poll.Scheme = offload.PollInterrupt
	intr.Name = "interrupt"
	for _, cfg := range []Config{intr, QTLS(8)} {
		b.Run(cfg.Name, func(b *testing.B) {
			var cps float64
			for i := 0; i < b.N; i++ {
				cps = quickCPS(cfg, 420)
			}
			b.ReportMetric(cps, "cps")
		})
	}
}
