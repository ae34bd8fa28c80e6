package figures

import (
	"fmt"
	"time"

	"qtls/internal/offload"
	"qtls/internal/perf"
)

// The adaptive-poll experiment: the paper calibrates the 48/24
// heuristic thresholds for one device and one op mix (§4.3); this
// figure asks what happens when the mix moves. Three workloads — the
// classical handshake mix the thresholds were tuned for, a record-heavy
// keepalive transfer mix, and a "10x asym" mix whose asymmetric ops are
// an order of magnitude slower (post-quantum-scale signatures) — are
// each run with the static defaults, with the best static scheme from a
// threshold sweep (the oracle a human operator would find offline), and
// with the closed-loop adaptive controller. The reported metric is the
// windowed retrieve-phase p99: how long completed responses sit on the
// rings before a poll collects them — exactly the signal the controller
// steers on.

// adaptiveSweepGrid is the static grid the adaptive run is judged
// against; sym = asym/2 preserves the paper's 2:1 shape.
var adaptiveSweepGrid = []int{8, 16, 24, 48, 96}

// adaptiveDESConfig is the controller tuning used in virtual time: the
// DES compresses a run into hundreds of milliseconds, so the control
// interval and sample gate shrink accordingly (the live stack defaults
// are 1s / 32 samples).
func adaptiveDESConfig() *offload.AdaptiveConfig {
	return &offload.AdaptiveConfig{
		Interval:   5 * time.Millisecond,
		MinSamples: 16,
	}
}

// adaptiveMix is one workload column of the figure.
type adaptiveMix struct {
	name    string
	workers int
	clients int
	params  func() perf.Params
	install func(clients int) func(*perf.Model)
}

func adaptiveMixes() []adaptiveMix {
	handshakes := func(clients int) func(*perf.Model) {
		return func(m *perf.Model) {
			perf.STimeWorkload{Clients: clients, Spec: perf.ScriptSpec{Suite: perf.SuiteRSA}}.Install(m)
		}
	}
	return []adaptiveMix{
		{
			// The mix the paper tuned 48/24 for.
			name: "classical", workers: 2, clients: clientsFor(2),
			params:  perf.DefaultParams,
			install: handshakes,
		},
		{
			// Symmetric record traffic: the sym threshold governs.
			name: "record-heavy", workers: 2, clients: 100,
			params: perf.DefaultParams,
			install: func(clients int) func(*perf.Model) {
				return func(m *perf.Model) {
					perf.ABWorkload{Clients: clients, FileBytes: 64 * 1024}.Install(m)
				}
			},
		},
		{
			// Asymmetric ops 10x slower, software and accelerated alike —
			// the PQ-scale mix. In-flight counts hover far below 48, so
			// the static default degenerates to failover-paced polling.
			name: "10x-asym", workers: 1, clients: 30,
			params: func() perf.Params {
				p := perf.DefaultParams()
				p.SwRSA *= 10
				p.QatRSA *= 10
				return p
			},
			install: handshakes,
		},
	}
}

// runAdaptiveMix runs one QTLS configuration over one mix. asym/sym
// override the static thresholds (0 keeps the paper defaults); ad, when
// non-nil, arms the controller.
func runAdaptiveMix(o Opts, mix adaptiveMix, asym, sym int, ad *offload.AdaptiveConfig) perf.RunResult {
	cfg := perf.QTLS(mix.workers)
	if asym > 0 {
		cfg.Poll.AsymThreshold, cfg.Poll.SymThreshold = asym, sym
	}
	cfg.Adaptive = ad
	return perf.Run(perf.RunOptions{
		Params:  mix.params(),
		Config:  cfg,
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Install: mix.install(mix.clients),
	})
}

// bestStaticAdaptive sweeps the static grid on one mix and returns the
// scheme with the lowest windowed retrieve p99, plus its result.
func bestStaticAdaptive(o Opts, mix adaptiveMix) (asym int, best perf.RunResult) {
	for _, a := range adaptiveSweepGrid {
		r := runAdaptiveMix(o, mix, a, a/2, nil)
		if asym == 0 || r.Stats.RetrieveP99 < best.Stats.RetrieveP99 {
			asym, best = a, r
		}
	}
	return asym, best
}

// Adaptive is the closed-loop threshold figure.
func Adaptive(o Opts) Table {
	o = o.withDefaults()
	t := Table{
		ID:     "adaptive",
		Title:  "Adaptive poll thresholds: windowed retrieve p99 vs static schemes, QTLS",
		XLabel: "workload mix",
		YLabel: "retrieve-phase windowed p99 (ms); final thresholds",
		Notes: fmt.Sprintf("best static = lowest-p99 scheme from a sym=asym/2 sweep over %v;\n"+
			"  the controller starts at the paper's %d/%d and walks toward the latency knee",
			adaptiveSweepGrid, offload.DefaultAsymThreshold, offload.DefaultSymThreshold),
	}
	static := Series{Name: fmt.Sprintf("static %d/%d p99", offload.DefaultAsymThreshold, offload.DefaultSymThreshold)}
	best := Series{Name: "best static p99"}
	bestAsym := Series{Name: "best static asym"}
	adapt := Series{Name: "adaptive p99"}
	finalAsym := Series{Name: "adaptive final asym"}
	moves := Series{Name: "adaptive moves"}
	for _, mix := range adaptiveMixes() {
		t.Columns = append(t.Columns, mix.name)
		def := runAdaptiveMix(o, mix, 0, 0, nil)
		a, b := bestStaticAdaptive(o, mix)
		ad := runAdaptiveMix(o, mix, 0, 0, adaptiveDESConfig())
		ms := func(r perf.RunResult) float64 { return r.Stats.RetrieveP99 / 1e6 }
		static.Values = append(static.Values, ms(def))
		best.Values = append(best.Values, ms(b))
		bestAsym.Values = append(bestAsym.Values, float64(a))
		adapt.Values = append(adapt.Values, ms(ad))
		finalAsym.Values = append(finalAsym.Values, float64(ad.Stats.FinalAsymThreshold))
		moves.Values = append(moves.Values, float64(ad.Stats.ThresholdAdjusts))
	}
	t.Series = []Series{static, best, bestAsym, adapt, finalAsym, moves}
	return t
}
