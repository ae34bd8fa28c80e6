package engine

import (
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// twoDeviceEngine builds a conn-hash engine over a two-device pool —
// device 0, the home, carrying the given injector, device 1 healthy — with
// one instance on each. A non-nil clk puts the pool under a health
// manager on that clock.
func twoDeviceEngine(t *testing.T, inj *fault.Injector, cfg Config, clk *testClock) *Engine {
	t.Helper()
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 16}
	faulted := spec
	faulted.Injector = inj
	pool := qat.PoolOf(qat.NewDevice(faulted), qat.NewDevice(spec))
	t.Cleanup(pool.Close)
	i0, err := pool.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := pool.AllocInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	if clk != nil {
		cfg.Lifecycle = qat.NewLifecycle(pool, clk.Now)
	}
	cfg.Instances = []*qat.Instance{i0, i1}
	cfg.InstanceDevices = []int{0, 1}
	cfg.Placement = offload.PlacementConnHash
	cfg.HomeDevice = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPlacementFailoverAcrossDevices is the cross-device failover
// scenario: injected stalls on the home device 0 time out its ops, the
// instance circuit opens, the engine re-routes to device 1 and the flight
// journal records the placement flip. The health manager's clock is held,
// so the circuit stays open: no probes go back to the sick device.
func TestPlacementFailoverAcrossDevices(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: int(qat.OpRSA), P: 1,
	})
	fr := flight.New(flight.Config{})
	e := twoDeviceEngine(t, inj, Config{
		OpTimeout: 5 * time.Millisecond,
		Flight:    fr.Journal(0),
	}, newTestClock())
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	// Drive RSA ops until the circuit trips and the route lands on device 1.
	for i := 0; i < 10; i++ {
		res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil })
		if err != nil || res != "sig" {
			t.Fatalf("op %d: %v, %v", i, res, err)
		}
		if e.RouteDevice() == 1 {
			break
		}
	}
	if got := e.RouteDevice(); got != 1 {
		t.Fatalf("route stuck on device %d; stats %+v", got, e.Stats())
	}
	st := e.Stats()
	if st.Trips == 0 {
		t.Fatalf("circuit never tripped: %+v", st)
	}
	if st.PlacementFlips != 1 {
		t.Fatalf("placement flips = %d, want 1: %+v", st.PlacementFlips, st)
	}
	// After the re-route, ops complete on device 1 without further
	// timeouts: they are served by the healthy device, not by software
	// fallback.
	before := e.Stats()
	for i := 0; i < 4; i++ {
		if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil }); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.Timeouts != before.Timeouts || after.SWFallbacks != before.SWFallbacks {
		t.Fatalf("re-routed ops still degrading: before %+v after %+v", before, after)
	}
	// The journal holds the one flip: an asym op, device 0 → 1.
	var flips []flight.Event
	for _, ev := range fr.Events(0) {
		if ev.Kind == flight.KindPlacement {
			flips = append(flips, ev)
		}
	}
	if len(flips) != 1 {
		t.Fatalf("journal holds %d placement events, want 1: %+v", len(flips), fr.Events(0))
	}
	if f := flips[0]; f.Code != flight.PlacementAsym || f.Dur != 0 || f.Arg != 1 {
		t.Fatalf("placement event = %+v, want asym 0->1", f)
	}
}
