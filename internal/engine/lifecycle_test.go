package engine

import (
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// connHashEngine builds a conn-hash engine over a two-device pool with a
// lifecycle manager: one instance per device, home on device 0. This is
// the worker-side topology the server builds per conn-hash worker.
func connHashEngine(t *testing.T, cfg Config) (*Engine, *qat.Pool, *qat.Lifecycle) {
	t.Helper()
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 16}
	pool := qat.NewPool(2, spec)
	t.Cleanup(pool.Close)
	insts := make([]*qat.Instance, 2)
	for d := range insts {
		var err error
		if insts[d], err = pool.AllocInstance(d); err != nil {
			t.Fatal(err)
		}
	}
	lc := qat.NewLifecycle(pool, qat.LifecycleConfig{})
	cfg.Instances = insts
	cfg.InstanceDevices = []int{0, 1}
	cfg.Placement = offload.PlacementConnHash
	cfg.HomeDevice = 0
	cfg.Lifecycle = lc
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, pool, lc
}

// TestRehome pins the live re-homing primitive: ops of every class prefer
// the home device, subsequent ops land on the new home, and non-moves
// (same device, out of range, non-conn-hash placement) report false.
func TestRehome(t *testing.T) {
	e, pool, _ := connHashEngine(t, Config{})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	routeAll := func(want int) {
		t.Helper()
		for _, kind := range []minitls.OpKind{minitls.KindRSA, minitls.KindPRF} {
			if _, err := e.Do(call, kind, func() (any, error) { return 1, nil }); err != nil {
				t.Fatal(err)
			}
			if got := e.RouteDevice(); got != want {
				t.Fatalf("%v op routed to device %d, want home %d", kind, got, want)
			}
		}
	}

	if e.HomeDevice() != 0 {
		t.Fatalf("home = %d, want 0", e.HomeDevice())
	}
	routeAll(0)
	if e.Rehome(0) {
		t.Fatal("Rehome to the current home reported a move")
	}
	if e.Rehome(7) || e.Rehome(-1) {
		t.Fatal("Rehome out of range reported a move")
	}
	if !e.Rehome(1) {
		t.Fatal("Rehome(1) reported no move")
	}
	if e.HomeDevice() != 1 {
		t.Fatalf("home after Rehome = %d, want 1", e.HomeDevice())
	}
	routeAll(1)
	if st := e.Stats(); st.PlacementFlips != 1 {
		t.Fatalf("placement flips = %d, want the one move", st.PlacementFlips)
	}

	// Single-placement engines never re-home: every device is preferred.
	insts := make([]*qat.Instance, 2)
	for d := range insts {
		var err error
		if insts[d], err = pool.AllocInstance(d); err != nil {
			t.Fatal(err)
		}
	}
	single, err := New(Config{Instances: insts, InstanceDevices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if single.Rehome(1) {
		t.Fatal("single-placement engine accepted Rehome")
	}
}

// TestLifecycleAdmissionSpills pins quarantine admission control inside
// the engine: with the home device quarantined, submissions skip its
// instances and land on the healthy device; with every device quarantined
// they fall back to software — no op ever parks on a quarantined device.
func TestLifecycleAdmissionSpills(t *testing.T) {
	e, _, lc := connHashEngine(t, Config{})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}

	lc.Quarantine(0, qat.ReasonManual)
	for i := 0; i < 4; i++ {
		if res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil }); err != nil || res != "sig" {
			t.Fatalf("op %d under quarantine: %v, %v", i, res, err)
		}
	}
	if got := e.RouteDevice(); got != 1 {
		t.Fatalf("ops routed to device %d with device 0 quarantined, want 1", got)
	}
	if st := e.Stats(); st.SWFallbacks != 0 {
		t.Fatalf("healthy spill device available but ops fell back to software: %+v", st)
	}

	// Total quarantine: the offload path is refused, software answers.
	lc.Quarantine(1, qat.ReasonManual)
	before := e.Stats()
	if res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sw", nil }); err != nil || res != "sw" {
		t.Fatalf("op with all devices quarantined: %v, %v", res, err)
	}
	if after := e.Stats(); after.SWFallbacks != before.SWFallbacks+1 {
		t.Fatalf("all-quarantined op did not fall back to software: before %+v after %+v", before, after)
	}
}

// TestBreakerFeedsLifecycle pins the breaker→lifecycle wiring: injected
// stalls open the instance breaker, the engine reports the open to the
// lifecycle manager, and the sick device leaves the healthy state.
func TestBreakerFeedsLifecycle(t *testing.T) {
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 16}
	faulted := spec
	faulted.Injector = fault.NewInjector(1, fault.Rule{
		Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: int(qat.OpRSA), P: 1,
	})
	pool := qat.PoolOf(qat.NewDevice(faulted), qat.NewDevice(spec))
	t.Cleanup(pool.Close)
	insts := make([]*qat.Instance, 2)
	for d := range insts {
		var err error
		if insts[d], err = pool.AllocInstance(d); err != nil {
			t.Fatal(err)
		}
	}
	lc := qat.NewLifecycle(pool, qat.LifecycleConfig{SuspectOpens: 1, QuarantineOpens: 1})
	e, err := New(Config{
		Instances:       insts,
		InstanceDevices: []int{0, 1},
		Placement:       offload.PlacementConnHash,
		HomeDevice:      0,
		Lifecycle:       lc,
		OpTimeout:       5 * time.Millisecond,
		Breaker: &fault.BreakerConfig{
			Window: 4, MinSamples: 2, ProbeCount: 1, Cooldown: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	for i := 0; i < 10 && lc.State(0) == qat.DevHealthy; i++ {
		if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil }); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if lc.State(0) != qat.DevQuarantined {
		t.Fatalf("device 0 state %v after breaker opened, want quarantined", lc.State(0))
	}
	if lc.State(1) != qat.DevHealthy {
		t.Fatalf("device 1 state %v, want healthy", lc.State(1))
	}
}
