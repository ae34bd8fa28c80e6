package figures

import (
	"fmt"
	"time"

	"qtls/internal/flight"
	"qtls/internal/metrics"
)

// Blackbox contrasts the two latency planes the stack exposes: the
// all-time metrics.Histogram behind qtls_phase_ns, and the sliding
// flight.Window behind qtls_phase_ns_w60s. A transient incident —
// a minority of spans jumping three orders of magnitude, the signature
// of a stalled engine driving ops into timeout fallback — is injected
// after a long healthy run. The windowed p99 crosses the SLO within a
// few seconds of onset (arming the flight recorder's anomaly dump) and
// decays once the incident leaves the window; the lifetime p99 never
// moves, because the slow spans stay below one percent of all samples
// ever observed. That asymmetry is why the anomaly trigger reads the
// window, never the lifetime series. Both
// planes use the same quarter-log2 estimator (metrics.Dist), so the
// figure contrasts their time horizons, not two estimators.
//
// The simulation is fully deterministic: the clock is synthetic (every
// Window method takes nowNs) and the jitter comes from a fixed-seed LCG,
// so the shape test can assert exact detector behavior.
func Blackbox(Opts) Table {
	const (
		spanEvery = 2500 * time.Microsecond // 400 spans/s
		warmup    = 600 * time.Second       // healthy history before onset
		incident  = 30 * time.Second
		tail      = 70 * time.Second // recovery horizon after the incident
		slo       = 5 * time.Millisecond
		slowPct   = 15 // % of spans hitting timeout fallback during incident
	)
	onset := warmup
	end := onset + incident
	total := end + tail

	win := flight.NewWindow(12, 5*time.Second)
	all := new(metrics.Histogram)

	// Column instants relative to onset; the recovery columns sit past
	// the window span so the figure shows the windowed p99 forgetting.
	offsets := []time.Duration{
		-60 * time.Second, -5 * time.Second,
		2 * time.Second, 5 * time.Second, 10 * time.Second,
		20 * time.Second, 30 * time.Second,
		45 * time.Second, 60 * time.Second, 95 * time.Second,
	}
	windowed := make([]float64, 0, len(offsets))
	lifetime := make([]float64, 0, len(offsets))
	trigger := make([]float64, 0, len(offsets))
	active := make([]float64, 0, len(offsets))

	rng := uint64(1)
	next := func(mod int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33) % mod
	}

	detect := time.Duration(-1)
	lastCheck := time.Duration(-time.Second)
	si := 0
	for now := time.Duration(0); now < total; now += spanEvery {
		nowNs := int64(now)
		inIncident := now >= onset && now < end
		var lat time.Duration
		if inIncident && next(100) < slowPct {
			lat = 15*time.Millisecond + time.Duration(next(int64(25*time.Millisecond)))
		} else {
			lat = 80*time.Microsecond + time.Duration(next(int64(80*time.Microsecond)))
		}
		win.Observe(float64(lat), nowNs)
		all.Observe(float64(lat))
		// The SLO detector runs once per simulated second, like the
		// worker-loop Check cadence.
		if now-lastCheck >= time.Second {
			lastCheck = now
			if detect < 0 && now >= onset && win.Snapshot(nowNs).P99 > float64(slo) {
				detect = now - onset
			}
		}
		for si < len(offsets) && now-onset >= offsets[si] {
			s := win.Snapshot(nowNs)
			windowed = append(windowed, s.P99/float64(time.Millisecond))
			lifetime = append(lifetime, all.Quantile(0.99)/float64(time.Millisecond))
			if s.P99 > float64(slo) {
				trigger = append(trigger, 1)
			} else {
				trigger = append(trigger, 0)
			}
			if inIncident {
				active = append(active, 1)
			} else {
				active = append(active, 0)
			}
			si++
		}
	}

	t := Table{
		ID:     "blackbox",
		Title:  "Windowed vs lifetime p99 around a transient engine stall",
		XLabel: "seconds relative to incident onset",
		YLabel: "p99 span latency (ms); trigger/incident are 0/1 markers",
	}
	for _, off := range offsets {
		t.Columns = append(t.Columns, fmt.Sprintf("%+ds", int(off/time.Second)))
	}
	t.Series = []Series{
		{Name: "w60s p99", Values: windowed},
		{Name: "all-time p99", Values: lifetime},
		{Name: "slo trigger", Values: trigger},
		{Name: "incident", Values: active},
	}
	detected := "never"
	if detect >= 0 {
		detected = fmt.Sprintf("%.0fs after onset", detect.Seconds())
	}
	t.Notes = fmt.Sprintf(
		"%d%% of spans jump to 15-40ms for %ds after %ds healthy; windowed p99 crosses the %v SLO %s, lifetime p99 never does (slow spans stay <1%% of all samples)",
		slowPct, int(incident.Seconds()), int(warmup.Seconds()), slo, detected)
	return t
}
