//go:build linux

package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/loadgen"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// The chaos soak harness: a scripted device kill and recovery driven
// through fault.Schedule against a live conn-hash sharded server with the
// lifecycle manager on. The invariants are the ISSUE's acceptance
// criteria — zero hung connections, zero leaked inflight ops or
// goroutines, p99 bounded while the device is quarantined, and CPS back
// within 10% of the pre-fault plateau once probation re-admits it.

// startChaosServer builds a two-device conn-hash pool where device 1
// carries its own injector (the chaos schedule's target), lifecycle
// management enabled and the flight recorder capturing the journal.
func startChaosServer(t *testing.T) (*Server, *qat.Pool, *fault.Injector, *flight.Recorder) {
	t.Helper()
	spec := qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 4, RingCapacity: 128}
	sick := spec
	inj := fault.NewInjector(7)
	sick.Injector = inj
	pool := qat.PoolOf(qat.NewDevice(spec), qat.NewDevice(sick))
	t.Cleanup(pool.Close)

	rec := trace.NewRecorder(1024)
	rec.SetEnabled(true)
	fr := flight.New(flight.Config{})

	run := ConfigQTLS
	run.Placement = offload.PlacementConnHash
	run.OpTimeout = 10 * time.Millisecond
	run.Lifecycle = true
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    pool,
		Handler: SizedBodyHandler(1 << 20),
		Metrics: metrics.NewRegistry(),
		Trace:   rec,
		Flight:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, pool, inj, fr
}

// chaosLoad drives one measured soak phase.
func chaosLoad(addr string, d time.Duration) loadgen.Result {
	return loadgen.STime(loadgen.STimeOptions{
		Addr:     addr,
		Clients:  4,
		Duration: d,
	})
}

func waitDeviceState(t *testing.T, lc *qat.Lifecycle, dev int, want qat.DeviceState, timeout time.Duration) {
	t.Helper()
	if !waitUntil(t, timeout, func() bool { return lc.State(dev) == want }) {
		t.Fatalf("device %d never reached %v (state %v)", dev, want, lc.State(dev))
	}
}

// TestChaosSoakKillRecover is the scripted kill/recover scenario: a
// stall window wedges device 1, the lifecycle quarantines it and the
// worker homed there re-homes onto device 0; when the window closes,
// probation probes the device back to health, the worker re-homes back,
// and throughput recovers to the pre-fault plateau.
func TestChaosSoakKillRecover(t *testing.T) {
	srv, pool, inj, fr := startChaosServer(t)
	time.Sleep(20 * time.Millisecond) // device/worker goroutines settle
	base := runtime.NumGoroutine()
	lc := srv.Lifecycle()
	if lc == nil {
		t.Fatal("lifecycle not provisioned")
	}

	// Phase 1: pre-fault plateau, over two seconds: one second under -race
	// on two cores reads up to a quarter above the plateau now and then,
	// and the recovery gate below compares against it.
	pre := chaosLoad(srv.Addr(), 2*time.Second)
	if pre.Connections < 16 {
		t.Fatalf("baseline too weak: %s", pre)
	}
	if pre.Errors > 0 {
		t.Fatalf("baseline errors: %s", pre)
	}

	// Phase 2: scripted kill. A stall window on device 1 leaks ring slots
	// and suppresses completions — the wedge watchdog (or breaker
	// density, whichever fires first) must quarantine it.
	sched, err := fault.ParseSchedule("t=0ms dev1 stall 700ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	applyDone := make(chan error, 1)
	go func() {
		applyDone <- sched.Apply(ctx,
			func(dev int) *fault.Injector {
				if dev == 1 {
					return inj
				}
				return nil
			},
			func(dev int) { pool.Device(dev).Reset() })
	}()

	loadDone := make(chan loadgen.Result, 1)
	go func() { loadDone <- chaosLoad(srv.Addr(), 1200*time.Millisecond) }()

	waitDeviceState(t, lc, 1, qat.DevQuarantined, 3*time.Second)
	// The worker homed on the quarantined device re-homes live.
	if !waitUntil(t, 2*time.Second, func() bool {
		return srv.Workers()[1].HomeDevice() == 0
	}) {
		t.Fatalf("worker 1 never re-homed off the quarantined device (home=%d)",
			srv.Workers()[1].HomeDevice())
	}
	chaos := <-loadDone
	if chaos.Errors > 0 {
		t.Fatalf("hard client errors during chaos (sheds are fine): %s", chaos)
	}
	if chaos.Connections == 0 {
		t.Fatalf("no connections survived the chaos window: %s", chaos)
	}
	// p99 bounded while quarantined: ops either complete on the healthy
	// device or fall back to software after OpTimeout — nothing waits for
	// the full stall window.
	if p99 := time.Duration(chaos.Latency.P99); p99 > 400*time.Millisecond {
		t.Fatalf("chaos-phase p99 unbounded: %v", p99)
	}
	if err := <-applyDone; err != nil {
		t.Fatalf("schedule apply: %v", err)
	}

	// Phase 3: recovery. The stall window is closed; quarantine matures
	// into probation, probe traffic scores clean, and the device is
	// re-admitted. Keep load flowing so probes are actually admitted.
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		chaosLoad(srv.Addr(), 300*time.Millisecond)
		recovered = lc.State(1) == qat.DevHealthy
	}
	if !recovered {
		t.Fatalf("device 1 never re-admitted (state %v)", lc.State(1))
	}
	// And the worker re-homes back onto its hash device.
	if !waitUntil(t, 2*time.Second, func() bool {
		chaosLoad(srv.Addr(), 100*time.Millisecond)
		return srv.Workers()[1].HomeDevice() == 1
	}) {
		t.Fatalf("worker 1 never re-homed back (home=%d)", srv.Workers()[1].HomeDevice())
	}

	// CPS recovers to within 10% of the pre-fault plateau. One window is
	// measured per attempt to ride out scheduler noise under -race.
	var post loadgen.Result
	okCPS := false
	for i := 0; i < 3 && !okCPS; i++ {
		post = chaosLoad(srv.Addr(), time.Second)
		okCPS = post.Errors == 0 && post.CPS() >= 0.9*pre.CPS()
	}
	if !okCPS {
		t.Fatalf("CPS did not recover: pre %.0f, post %.0f (%s)", pre.CPS(), post.CPS(), post)
	}

	// The journal tells the whole story: quarantine entry, probation,
	// probe-ok re-admission, and the placement flips of the re-homes.
	var sawQuarantine, sawProbeOK, sawPlacement bool
	for _, e := range fr.Events(0) {
		switch e.Kind {
		case flight.KindLifecycle:
			_, to := flight.LifecycleStates(e.Dur)
			if to == "quarantined" {
				sawQuarantine = true
			}
			if to == "healthy" && e.Code == uint8(qat.ReasonProbeOK) {
				sawProbeOK = true
			}
		case flight.KindPlacement:
			sawPlacement = true
		}
	}
	if !sawQuarantine || !sawProbeOK || !sawPlacement {
		t.Fatalf("journal missing lifecycle story: quarantine=%v probe-ok=%v placement=%v",
			sawQuarantine, sawProbeOK, sawPlacement)
	}

	// Soak invariants: drain clean, nothing hung, nothing leaked.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
	for _, w := range srv.Workers() {
		if n := w.ConnCount(); n != 0 {
			t.Fatalf("%s holds %d hung connections", w, n)
		}
		if e := w.Engine(); e != nil && e.InflightTotal() != 0 {
			t.Fatalf("%s leaked %d in-flight offloads", w, e.InflightTotal())
		}
	}
	for _, h := range pool.Health() {
		if h.Inflight != 0 || h.Leaked != 0 {
			t.Fatalf("device %d not drained: %+v", h.Device, h)
		}
	}
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		ok = runtime.NumGoroutine() <= base+2
		if !ok {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), base)
	}
}

// TestChaosSoakResetStorm drives the second grammar action end to end: a
// burst of endpoint resets quarantines the device via the reset-storm
// detector, without any injector rule installed.
func TestChaosSoakResetStorm(t *testing.T) {
	srv, pool, _, _ := startChaosServer(t)
	lc := srv.Lifecycle()

	sched, err := fault.ParseSchedule("t=0ms dev1 reset-storm n=4 gap=30ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	applyDone := make(chan error, 1)
	go func() {
		applyDone <- sched.Apply(ctx, func(int) *fault.Injector { return nil },
			func(dev int) { pool.Device(dev).Reset() })
	}()
	loadDone := make(chan loadgen.Result, 1)
	go func() { loadDone <- chaosLoad(srv.Addr(), 800*time.Millisecond) }()

	waitDeviceState(t, lc, 1, qat.DevQuarantined, 3*time.Second)
	if err := <-applyDone; err != nil {
		t.Fatalf("schedule apply: %v", err)
	}
	res := <-loadDone
	if res.Errors > 0 {
		t.Fatalf("client errors during reset storm: %s", res)
	}
	// Recovery follows the same probation path.
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		chaosLoad(srv.Addr(), 300*time.Millisecond)
		recovered = lc.State(1) == qat.DevHealthy
	}
	if !recovered {
		t.Fatalf("device 1 never re-admitted after storm (state %v)", lc.State(1))
	}
}
