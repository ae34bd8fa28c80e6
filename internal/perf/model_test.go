package perf

import (
	"testing"
	"time"

	"qtls/internal/sim"
)

// short run windows keep unit tests fast; calibration-grade runs live in
// shape_test.go.
const (
	tWarm    = 100 * time.Millisecond
	tMeasure = 200 * time.Millisecond
)

func cps(t *testing.T, cfg Config, spec ScriptSpec, clients int, resume float64) float64 {
	t.Helper()
	res := Run(RunOptions{
		Config: cfg, Warmup: tWarm, Measure: tMeasure,
		Install: func(m *Model) {
			STimeWorkload{Clients: clients, Spec: spec, ResumeFraction: resume}.Install(m)
		},
	})
	return res.CPS
}

func TestDeterminism(t *testing.T) {
	a := cps(t, QTLS(4), ScriptSpec{Suite: SuiteRSA}, 200, 0)
	b := cps(t, QTLS(4), ScriptSpec{Suite: SuiteRSA}, 200, 0)
	if a != b {
		t.Fatalf("model not deterministic: %v vs %v", a, b)
	}
}

func TestConfigurationsOrder(t *testing.T) {
	cfgs := Configurations(4)
	want := []string{"SW", "QAT+S", "QAT+A", "QAT+AH", "QTLS"}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configurations", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Fatalf("config %d = %s, want %s", i, c.Name, want[i])
		}
	}
}

// The headline ordering of the paper: SW < QAT+S < QAT+A < QAT+AH < QTLS
// for full TLS-RSA handshakes at moderate worker counts.
func TestConfigurationOrderingRSA(t *testing.T) {
	var prev float64
	var prevName string
	for _, cfg := range Configurations(4) {
		got := cps(t, cfg, ScriptSpec{Suite: SuiteRSA}, 300, 0)
		if got <= prev {
			t.Fatalf("%s (%.0f) should beat %s (%.0f)", cfg.Name, got, prevName, prev)
		}
		prev, prevName = got, cfg.Name
	}
}

// CPS scales roughly linearly with workers below device saturation
// (Fig. 7a: "increases linearly ... from 2 to 24").
func TestLinearScalingBelowSaturation(t *testing.T) {
	c2 := cps(t, QTLS(2), ScriptSpec{Suite: SuiteRSA}, clients2(2), 0)
	c8 := cps(t, QTLS(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	ratio := c8 / c2
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("8w/2w ratio = %.2f, want ~4 (linear scaling)", ratio)
	}
}

func clients2(w int) int { return 100 + 40*w }

// The QAT card saturates: 32 workers deliver far less than 4x the CPS of
// 8 workers (the ~100K DH8970 limit).
func TestCardSaturation(t *testing.T) {
	c8 := cps(t, QTLS(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	c32 := cps(t, QTLS(32), ScriptSpec{Suite: SuiteRSA}, clients2(32), 0)
	if c32 > 3.2*c8 {
		t.Fatalf("no saturation: 32w=%.0f vs 8w=%.0f", c32, c8)
	}
	if c32 < 80_000 || c32 > 115_000 {
		t.Fatalf("card limit = %.0f, want ≈100K", c32)
	}
}

// Abbreviated handshakes skip asymmetric work: resumption CPS is much
// higher than full-handshake CPS for the software baseline.
func TestResumptionSkipsAsymmetricWork(t *testing.T) {
	full := cps(t, SW(4), ScriptSpec{Suite: SuiteECDHERSA}, 300, 0)
	abbr := cps(t, SW(4), ScriptSpec{Suite: SuiteECDHERSA}, 300, 1.0)
	if abbr < 4*full {
		t.Fatalf("abbreviated %.0f should be >4x full %.0f for SW", abbr, full)
	}
}

// QAT+S loses to SW on abbreviated handshakes (Fig. 9a): blocking offload
// of cheap PRF ops costs more than computing them.
func TestStraightOffloadLosesOnResumption(t *testing.T) {
	sw := cps(t, SW(4), ScriptSpec{Suite: SuiteECDHERSA}, 400, 1.0)
	qs := cps(t, QATS(4), ScriptSpec{Suite: SuiteECDHERSA}, 400, 1.0)
	if qs >= sw {
		t.Fatalf("QAT+S %.0f should lose to SW %.0f on 100%% abbreviated", qs, sw)
	}
}

// The resumption mix interpolates between full and abbreviated rates.
func TestResumptionMixMonotonic(t *testing.T) {
	full := cps(t, QTLS(4), ScriptSpec{Suite: SuiteECDHERSA}, 300, 0)
	mix := cps(t, QTLS(4), ScriptSpec{Suite: SuiteECDHERSA}, 300, 0.9)
	abbr := cps(t, QTLS(4), ScriptSpec{Suite: SuiteECDHERSA}, 300, 1.0)
	if !(full < mix && mix < abbr) {
		t.Fatalf("mix not monotonic: full=%.0f mix=%.0f abbr=%.0f", full, mix, abbr)
	}
}

// Throughput: QTLS beats SW by ~2x at large files, roughly ties at 4 KB
// (Fig. 10).
func TestThroughputShape(t *testing.T) {
	run := func(cfg Config, kb int) float64 {
		res := Run(RunOptions{
			Config: cfg, Warmup: tWarm, Measure: tMeasure,
			Install: func(m *Model) {
				ABWorkload{Clients: 200, FileBytes: kb * 1024}.Install(m)
			},
		})
		return res.Gbps
	}
	swBig, qtBig := run(SW(8), 128), run(QTLS(8), 128)
	if qtBig < 1.7*swBig {
		t.Fatalf("128KB: QTLS %.1f should be ~2x SW %.1f", qtBig, swBig)
	}
	swSmall, qtSmall := run(SW(8), 4), run(QTLS(8), 4)
	if qtSmall > 1.6*swSmall {
		t.Fatalf("4KB: QTLS %.1f should be close to SW %.1f", qtSmall, swSmall)
	}
}

// Latency: the async framework keeps response time flat as concurrency
// grows while SW queues up (Fig. 11).
func TestLatencyShape(t *testing.T) {
	lat := func(cfg Config, conc int) time.Duration {
		res := Run(RunOptions{
			Config: cfg, Warmup: 2 * tWarm, Measure: tMeasure,
			Install: func(m *Model) {
				LatencyWorkload{Concurrency: conc, PerClientRate: 6}.Install(m)
			},
		})
		return res.AvgLatency
	}
	swLow := lat(SW(1), 1)
	qtLow := lat(QTLS(1), 1)
	if qtLow >= swLow {
		t.Fatalf("QTLS %v should beat SW %v at concurrency 1", qtLow, swLow)
	}
	swHigh := lat(SW(1), 64)
	qtHigh := lat(QTLS(1), 64)
	reduction := 1 - float64(qtHigh)/float64(swHigh)
	if reduction < 0.5 {
		t.Fatalf("reduction at c=64 = %.0f%%, want large (paper ~85%%)", reduction*100)
	}
}

// The 1 ms polling thread devastates low-concurrency latency (Fig. 12c).
func TestSlowTimerPollingLatency(t *testing.T) {
	mk := func(interval time.Duration) Config {
		cfg := QATA(1)
		cfg.Poll.Interval = interval
		return cfg
	}
	lat := func(cfg Config) time.Duration {
		res := Run(RunOptions{
			Config: cfg, Warmup: tWarm, Measure: tMeasure,
			Install: func(m *Model) {
				LatencyWorkload{Concurrency: 2, PerClientRate: 6}.Install(m)
			},
		})
		return res.AvgLatency
	}
	fast := lat(mk(10 * time.Microsecond))
	slow := lat(mk(time.Millisecond))
	if slow < fast+2*time.Millisecond {
		t.Fatalf("1ms polling latency %v should far exceed 10µs polling %v", slow, fast)
	}
}

// 10µs timer polling costs throughput relative to heuristic polling
// (Fig. 12a: ~20% gap).
func TestTimerPollingThroughputGap(t *testing.T) {
	timer := cps(t, QATA(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	heur := cps(t, QATAH(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	gap := 1 - timer/heur
	if gap < 0.08 || gap > 0.35 {
		t.Fatalf("10µs-vs-heuristic gap = %.0f%%, want ~20%%", gap*100)
	}
}

// Kernel-bypass notification beats FD notification (Fig. 7a: ~8%).
func TestNotificationSchemeGap(t *testing.T) {
	fd := cps(t, QATAH(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	bypass := cps(t, QTLS(8), ScriptSpec{Suite: SuiteRSA}, clients2(8), 0)
	if bypass <= fd {
		t.Fatalf("kernel bypass %.0f should beat FD %.0f", bypass, fd)
	}
	gain := bypass/fd - 1
	if gain > 0.25 {
		t.Fatalf("bypass gain %.0f%% implausibly large", gain*100)
	}
}

// TLS 1.3 gains less from offload than TLS 1.2 because HKDF stays on the
// CPU (Fig. 8 vs Fig. 7b).
func TestTLS13GainLowerThanTLS12(t *testing.T) {
	ratio := func(spec ScriptSpec) float64 {
		sw := cps(t, SW(8), spec, clients2(8), 0)
		qt := cps(t, QTLS(8), spec, clients2(8), 0)
		return qt / sw
	}
	r12 := ratio(ScriptSpec{Suite: SuiteRSA})
	r13 := ratio(ScriptSpec{Suite: SuiteTLS13})
	if r13 >= r12 {
		t.Fatalf("TLS1.3 gain %.1fx should be below TLS1.2 gain %.1fx", r13, r12)
	}
	if r13 < 2 {
		t.Fatalf("TLS1.3 gain %.1fx implausibly low", r13)
	}
}

// The P-256 software anomaly (Fig. 7c): SW beats QAT+S on P-256 but loses
// badly on P-384.
func TestP256MontgomeryAnomaly(t *testing.T) {
	p256 := ScriptSpec{Suite: SuiteECDHEECDSA, Curve: Curves()[0]}
	p384 := ScriptSpec{Suite: SuiteECDHEECDSA, Curve: Curves()[1]}
	sw256 := cps(t, SW(4), p256, 260, 0)
	qs256 := cps(t, QATS(4), p256, 260, 0)
	if sw256 <= qs256 {
		t.Fatalf("P-256: SW %.0f should beat QAT+S %.0f", sw256, qs256)
	}
	sw384 := cps(t, SW(4), p384, 260, 0)
	qt384 := cps(t, QTLS(4), p384, 260, 0)
	if qt384 < 6*sw384 {
		t.Fatalf("P-384: QTLS %.0f should crush SW %.0f (paper 14x)", qt384, sw384)
	}
}

// Engine pools: asymmetric and symmetric requests queue independently.
func TestEnginePoolIndependence(t *testing.T) {
	s := sim.New(1)
	dev := newDevice(s, 1, 1, 1)
	ep := dev.endpoints[0]
	var doneOrder []string
	ep.submit(opRSA, 100*time.Microsecond, func(sim.Time) { doneOrder = append(doneOrder, "rsa1") })
	ep.submit(opRSA, 100*time.Microsecond, func(sim.Time) { doneOrder = append(doneOrder, "rsa2") })
	ep.submit(opPRF, 10*time.Microsecond, func(sim.Time) { doneOrder = append(doneOrder, "prf") })
	s.Drain(100)
	// The PRF runs on the sym engine concurrently with rsa1; rsa2 queues.
	if len(doneOrder) != 3 || doneOrder[0] != "prf" || doneOrder[2] != "rsa2" {
		t.Fatalf("order = %v, want prf first, rsa2 last", doneOrder)
	}
	if s.Now() != sim.Time(200*time.Microsecond) {
		t.Fatalf("rsa2 finished at %v, want 200µs (queued behind rsa1)", s.Now())
	}
}

func TestLinkSerialization(t *testing.T) {
	l := &link{gbps: 8} // 1 GB/s → 1 ns per byte
	d1 := l.sendDelay(0, 1000)
	if d1 != 1000*time.Nanosecond {
		t.Fatalf("first send delay = %v", d1)
	}
	// Second send queues behind the first.
	d2 := l.sendDelay(0, 1000)
	if d2 != 2000*time.Nanosecond {
		t.Fatalf("queued send delay = %v", d2)
	}
	if l.sendDelay(0, 0) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
}

func TestBuildScriptOpCounts(t *testing.T) {
	p := DefaultParams()
	count := func(spec ScriptSpec) (rsa, ecc, prf, hkdf, cipher int) {
		for _, st := range BuildScript(&p, spec) {
			if st.kind != stepCrypto {
				continue
			}
			switch st.op {
			case opRSA:
				rsa++
			case opECDSA, opECDH:
				ecc++
			case opPRF:
				prf++
			case opHKDF:
				hkdf++
			case opCipher:
				cipher++
			}
		}
		return
	}
	// Table 1 rows.
	if r, e, p4, h, _ := count(ScriptSpec{Suite: SuiteRSA}); r != 1 || e != 0 || p4 != 4 || h != 0 {
		t.Fatalf("TLS-RSA script ops = %d/%d/%d/%d", r, e, p4, h)
	}
	if r, e, p4, _, _ := count(ScriptSpec{Suite: SuiteECDHERSA}); r != 1 || e != 2 || p4 != 4 {
		t.Fatalf("ECDHE-RSA script ops = %d/%d/%d", r, e, p4)
	}
	if r, e, p4, _, _ := count(ScriptSpec{Suite: SuiteECDHEECDSA}); r != 0 || e != 3 || p4 != 4 {
		t.Fatalf("ECDHE-ECDSA script ops = %d/%d/%d", r, e, p4)
	}
	if r, e, _, h, _ := count(ScriptSpec{Suite: SuiteTLS13}); r != 1 || e != 2 || h <= 4 {
		t.Fatalf("TLS1.3 script ops = %d/%d/hkdf=%d", r, e, h)
	}
	// Abbreviated: PRF only.
	if r, e, p4, _, _ := count(ScriptSpec{Suite: SuiteECDHERSA, Abbreviated: true}); r != 0 || e != 0 || p4 != 3 {
		t.Fatalf("abbreviated script ops = %d/%d/%d", r, e, p4)
	}
	// 100KB response = 7 records = 7 cipher ops.
	if _, _, _, _, c := count(ScriptSpec{Suite: SuiteRSA, RequestBytes: 100 * 1024}); c != 7 {
		t.Fatalf("cipher ops = %d, want 7", c)
	}
}

func TestStatsHelpers(t *testing.T) {
	st := newStats()
	st.Handshakes = 500
	st.BytesServed = 1 << 30
	if got := st.CPS(time.Second); got != 500 {
		t.Fatalf("CPS = %v", got)
	}
	if got := st.Gbps(time.Second); got < 8.5 || got > 8.7 {
		t.Fatalf("Gbps = %v", got)
	}
	st.CPUBusy = 2 * time.Second
	if got := st.Utilization(4, time.Second); got != 0.5 {
		t.Fatalf("Utilization = %v", got)
	}
}

func TestSuiteNames(t *testing.T) {
	for _, s := range []Suite{SuiteRSA, SuiteECDHERSA, SuiteECDHEECDSA, SuiteTLS13} {
		if s.String() == "suite?" {
			t.Fatalf("missing name for suite %d", s)
		}
	}
}
