package engine

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// testClock is a health-manager clock that moves only when the test
// advances it: held, an open circuit stays open for the whole test.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

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
	lc := qat.NewLifecycle(pool, newTestClock().Now)
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

// TestBreakerFeedsLifecycle pins the circuit→device wiring inside the one
// health manager: injected stalls trip the instance's circuit, every trip
// — the first, and each failed half-open probe after a cooldown — counts
// toward its device's density, and the sick device is quarantined while
// the healthy one is untouched.
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
	clk := newTestClock()
	lc := qat.NewLifecycle(pool, clk.Now)
	e, err := New(Config{
		Instances:       insts,
		InstanceDevices: []int{0, 1},
		Placement:       offload.PlacementConnHash,
		HomeDevice:      0,
		Lifecycle:       lc,
		OpTimeout:       5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	sawSuspect := false
	for i := 0; i < 12 && lc.State(0) != qat.DevQuarantined; i++ {
		if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil }); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		sawSuspect = sawSuspect || lc.State(0) == qat.DevSuspect
		// Each op is one cooldown apart: an open circuit probes the sick
		// device again, and the failed probe is one more trip.
		clk.Advance(qat.BreakerCooldown)
	}
	if !sawSuspect {
		t.Fatal("device 0 went straight to quarantine: the first trip should mark it suspect")
	}
	if lc.State(0) != qat.DevQuarantined {
		t.Fatalf("device 0 state %v after its circuit kept tripping, want quarantined (stats %+v)", lc.State(0), e.Stats())
	}
	if e.Stats().Trips < 3 {
		t.Fatalf("trips = %d, want the 3 that quarantine the device", e.Stats().Trips)
	}
	if lc.State(1) != qat.DevHealthy {
		t.Fatalf("device 1 state %v, want healthy", lc.State(1))
	}
}

// TestRingFullReleasesHalfOpenProbe is the regression test for probe slots
// leaked by backpressure: a half-open circuit whose probes the ring
// refuses (ErrRingFull) must hand the admissions back. Holding them, two
// refusals filled every probe slot, the circuit stayed half-open admitting
// nothing, and every later op on the recovered device went to software.
func TestRingFullReleasesHalfOpenProbe(t *testing.T) {
	const stalls = 4 // enough failures to trip the circuit
	inj := fault.NewInjector(1,
		fault.Rule{Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: stalls},
		// The two submissions after the stalled ones — the half-open
		// probes — find the ring full.
		fault.Rule{Kind: fault.RingFull, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, After: stalls, Limit: 2},
	)
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, Injector: inj})
	pool := qat.PoolOf(dev)
	t.Cleanup(pool.Close)
	inst, err := pool.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	clk := newTestClock()
	e, err := New(Config{Instance: inst, Lifecycle: qat.NewLifecycle(pool, clk.Now), OpTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	do := func() {
		t.Helper()
		if res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "sig", nil }); err != nil || res != "sig" {
			t.Fatalf("Do = %v, %v", res, err)
		}
	}
	for i := 0; i < stalls; i++ {
		do()
	}
	if st := inst.Breaker().State; st != qat.BreakerOpen {
		t.Fatalf("circuit %v after %d stalls, want open", st, stalls)
	}
	clk.Advance(qat.BreakerCooldown)
	do() // both half-open probes refused by the ring, then one lands
	if st := e.Stats(); st.RingFulls != 2 {
		t.Fatalf("ring-full refusals = %d, want 2", st.RingFulls)
	}
	before := e.Stats()
	const later = 16
	for i := 0; i < later; i++ {
		do()
	}
	after := e.Stats()
	if got := after.Submitted - before.Submitted; got != later {
		t.Fatalf("%d of %d ops on the recovered device were submitted (%d fell back to software)",
			got, later, after.SWFallbacks-before.SWFallbacks)
	}
	if st := inst.Breaker().State; st != qat.BreakerClosed {
		t.Fatalf("circuit %v after clean probes, want closed", st)
	}
}

// TestSpinningOpTicksWedgeWatchdog pins the straight mode's liveness on a
// device that stalls every op, with no op deadline to end the spin: the
// spinning op itself must tick the health manager, whose wedge detector
// quarantines the device and whose drain Reset hands the op back to the
// software path. With the watchdog ticked only between worker-loop
// iterations, the op spun forever.
func TestSpinningOpTicksWedgeWatchdog(t *testing.T) {
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 16}
	spec.Injector = fault.NewInjector(1, fault.Rule{
		Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1,
	})
	pool := qat.PoolOf(qat.NewDevice(spec))
	t.Cleanup(pool.Close)
	inst, err := pool.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	lc := qat.NewLifecycle(pool, nil) // wall time, as the server runs it
	e, err := New(Config{Instance: inst, Lifecycle: lc})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		res any
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := e.Do(&minitls.OpCall{Mode: minitls.AsyncModeOff}, minitls.KindRSA, func() (any, error) { return "sig", nil })
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.res != "sig" {
			t.Fatalf("Do = %v, %v, want the software result", r.res, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("op still spinning on the stalled device after 10s (device %v, stats %+v)", lc.State(0), e.Stats())
	}
	if st := lc.State(0); st != qat.DevQuarantined && st != qat.DevProbation {
		t.Fatalf("device %v after the wedge, want quarantined", st)
	}
	if st := e.Stats(); st.SWFallbacks != 1 {
		t.Fatalf("software fallbacks = %d, want the one stalled op", st.SWFallbacks)
	}
}

// TestFlightNamesMatchHealthEnums pins the flight journal's name tables to
// the qat enums they mirror without importing them: circuit states (breaker
// event codes), device states (packed into lifecycle events) and device
// transition reasons (lifecycle event codes), ordinal for ordinal, with
// nothing left over on either side.
func TestFlightNamesMatchHealthEnums(t *testing.T) {
	code := func(k flight.Kind, c int) string {
		t.Helper()
		b, err := flight.Event{Kind: k, Code: uint8(c)}.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var ev struct{ Code string }
		if err := json.Unmarshal(b, &ev); err != nil {
			t.Fatal(err)
		}
		return ev.Code
	}
	state := func(s int) string {
		_, to := flight.LifecycleStates(flight.PackLifecycleStates(0, int64(s)))
		return to
	}
	for _, tab := range []struct {
		name    string
		enum    func(int) string
		flight  func(int) string
		unknown string // the enum's String for an ordinal past its end
	}{
		{"breaker", func(i int) string { return qat.BreakerState(i).String() },
			func(i int) string { return code(flight.KindBreaker, i) }, "state("},
		{"device state", func(i int) string { return qat.DeviceState(i).String() }, state, "state("},
		{"lifecycle reason", func(i int) string { return qat.LifecycleReason(i).String() },
			func(i int) string { return code(flight.KindLifecycle, i) }, "reason("},
	} {
		n := 0
		for ; !strings.HasPrefix(tab.enum(n), tab.unknown); n++ {
			if got, want := tab.flight(n), tab.enum(n); got != want {
				t.Errorf("%s %d: flight names it %q, qat %q", tab.name, n, got, want)
			}
		}
		if n == 0 {
			t.Fatalf("%s: no ordinals", tab.name)
		}
		if got := tab.flight(n); !strings.Contains(got, "(") {
			t.Errorf("%s: flight names ordinal %d (%q), past the end of the qat enum", tab.name, n, got)
		}
	}
}
