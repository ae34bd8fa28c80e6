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

// twoDeviceEngine builds an engine over two devices — device 0 carrying
// the given injector, device 1 healthy — with one instance on each and
// class-shard placement (asym lane prefers device 0, sym lane device 1).
func twoDeviceEngine(t *testing.T, inj *fault.Injector, cfg Config) (*Engine, [2]*qat.Device) {
	t.Helper()
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 16}
	faulted := spec
	faulted.Injector = inj
	dev0, dev1 := qat.NewDevice(faulted), qat.NewDevice(spec)
	t.Cleanup(dev0.Close)
	t.Cleanup(dev1.Close)
	i0, err := dev0.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	i1, err := dev1.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Instances = []*qat.Instance{i0, i1}
	cfg.InstanceDevices = []int{0, 1}
	cfg.Placement = offload.PlacementClassShard
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, [2]*qat.Device{dev0, dev1}
}

// TestPlacementLanePreference checks the static routing: under
// class-shard with two devices, asym ops land on device 0 and sym-lane
// ops (PRF) on device 1.
func TestPlacementLanePreference(t *testing.T) {
	e, _ := twoDeviceEngine(t, nil, Config{})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if got := e.LaneDevice(flight.PlacementAsym); got != 0 {
		t.Fatalf("asym lane routed to device %d, want 0", got)
	}
	if _, err := e.Do(call, minitls.KindPRF, func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if got := e.LaneDevice(flight.PlacementSym); got != 1 {
		t.Fatalf("sym lane routed to device %d, want 1", got)
	}
	if st := e.Stats(); st.PlacementFlips != 0 {
		t.Fatalf("healthy routing flipped placement: %+v", st)
	}
}

// TestPlacementFailoverAcrossDevices is the cross-device failover
// scenario: injected stalls on device 0 time out the asym lane's ops,
// the instance breaker opens, the engine re-routes the class to device 1
// and the flight journal records the placement flip.
func TestPlacementFailoverAcrossDevices(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: int(qat.OpRSA), P: 1,
	})
	fr := flight.New(flight.Config{})
	fr.SetEnabled(true)
	e, _ := twoDeviceEngine(t, inj, Config{
		OpTimeout: 5 * time.Millisecond,
		Breaker: &fault.BreakerConfig{
			Window:     4,
			MinSamples: 2,
			ProbeCount: 1,
			Cooldown:   time.Hour, // stay open: no probes back to the sick device
		},
		Flight: fr.Journal(0),
	})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	// Drive RSA ops until the breaker trips and the lane lands on device 1.
	for i := 0; i < 10; i++ {
		res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil })
		if err != nil || res != "sig" {
			t.Fatalf("op %d: %v, %v", i, res, err)
		}
		if e.LaneDevice(flight.PlacementAsym) == 1 {
			break
		}
	}
	if got := e.LaneDevice(flight.PlacementAsym); got != 1 {
		t.Fatalf("asym lane stuck on device %d; stats %+v", got, e.Stats())
	}
	st := e.Stats()
	if st.Trips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if st.PlacementFlips == 0 {
		t.Fatalf("no placement flip counted: %+v", st)
	}
	// After the re-route, ops complete on device 1 without further
	// timeouts: the class is served by the healthy device, not by
	// software fallback.
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
	// The journal holds the flip: asym lane, device 0 → 1.
	var flip *flight.Event
	for _, ev := range fr.Events(0) {
		if ev.Kind == flight.KindPlacement {
			ev := ev
			flip = &ev
			break
		}
	}
	if flip == nil {
		t.Fatalf("no KindPlacement event in journal: %+v", fr.Events(0))
	}
	if flip.Code != flight.PlacementAsym || flip.Dur != 0 || flip.Arg != 1 {
		t.Fatalf("placement event = %+v, want asym 0->1", flip)
	}
}
