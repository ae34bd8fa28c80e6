package qat

import (
	"sync"
	"testing"
	"time"

	"qtls/internal/fault"
)

// lcFixture builds a pool with one instance per device and a lifecycle
// manager with fast, test-sized thresholds. The watchdog is NOT started:
// tests drive tick() with synthetic timestamps so the state machine is
// exercised deterministically, without sleeps.
func lcFixture(t *testing.T, devices int, cfg LifecycleConfig) (*Pool, *Lifecycle, []*Instance, func()) {
	t.Helper()
	spec := DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8}
	p := NewPool(devices, spec)
	insts := make([]*Instance, devices)
	for i := range insts {
		var err error
		if insts[i], err = p.AllocInstance(i); err != nil {
			p.Close()
			t.Fatalf("alloc dev %d: %v", i, err)
		}
	}
	lc := NewLifecycle(p, cfg)
	return p, lc, insts, func() { lc.Stop(); p.Close() }
}

// recordTransitions wires a hook that appends every transition under a
// lock, so tests can assert on the exact sequence.
func recordTransitions(lc *Lifecycle) func() []Transition {
	var mu sync.Mutex
	var trs []Transition
	lc.SetOnTransition(func(tr Transition) {
		mu.Lock()
		trs = append(trs, tr)
		mu.Unlock()
	})
	return func() []Transition {
		mu.Lock()
		defer mu.Unlock()
		return append([]Transition(nil), trs...)
	}
}

// TestLifecycleBreakerDensity pins the breaker-density input: one open
// inside the window marks a device suspect, QuarantineOpens opens
// quarantine it, and a suspect whose window drains decays back to healthy.
func TestLifecycleBreakerDensity(t *testing.T) {
	cfg := LifecycleConfig{Window: 100 * time.Millisecond, SuspectOpens: 1, QuarantineOpens: 3}
	_, lc, _, cleanup := lcFixture(t, 2, cfg)
	defer cleanup()
	snap := recordTransitions(lc)

	if lc.State(0) != DevHealthy || lc.Epoch() != 0 {
		t.Fatalf("fresh lifecycle: state %v epoch %d", lc.State(0), lc.Epoch())
	}
	lc.NoteBreakerOpen(0)
	if lc.State(0) != DevSuspect {
		t.Fatalf("after 1 open: %v, want suspect", lc.State(0))
	}
	if !lc.Routable(0) || !lc.Admit(0) {
		t.Fatal("suspect device must stay routable and admitting")
	}
	lc.NoteBreakerOpen(0)
	if lc.State(0) != DevSuspect {
		t.Fatalf("after 2 opens: %v, want still suspect", lc.State(0))
	}
	lc.NoteBreakerOpen(0)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("after 3 opens: %v, want quarantined", lc.State(0))
	}
	if lc.Routable(0) || lc.Admit(0) {
		t.Fatal("quarantined device must be unroutable and refuse admission")
	}
	if lc.Epoch() != 2 {
		t.Fatalf("epoch %d after two transitions, want 2", lc.Epoch())
	}
	// The other device is untouched.
	if lc.State(1) != DevHealthy {
		t.Fatalf("device 1 state %v, want healthy", lc.State(1))
	}

	// Suspect decay: device 1 trips once, then its window drains.
	lc.NoteBreakerOpen(1)
	if lc.State(1) != DevSuspect {
		t.Fatalf("device 1 after 1 open: %v, want suspect", lc.State(1))
	}
	lc.tick(time.Now().Add(cfg.Window + 50*time.Millisecond))
	if lc.State(1) != DevHealthy {
		t.Fatalf("device 1 after window drain: %v, want healthy", lc.State(1))
	}

	trs := snap()
	want := []struct {
		dev    int
		from   DeviceState
		to     DeviceState
		reason LifecycleReason
	}{
		{0, DevHealthy, DevSuspect, ReasonBreakerDensity},
		{0, DevSuspect, DevQuarantined, ReasonBreakerDensity},
		{1, DevHealthy, DevSuspect, ReasonBreakerDensity},
		{1, DevSuspect, DevHealthy, ReasonDecay},
	}
	if len(trs) != len(want) {
		t.Fatalf("transitions %v, want %d of them", trs, len(want))
	}
	for i, w := range want {
		got := trs[i]
		if got.Dev != w.dev || got.From != w.from || got.To != w.to || got.Reason != w.reason {
			t.Fatalf("transition %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestLifecycleQuarantineDrains pins the drain: entering quarantine resets
// the device so parked in-flight ops fail with ErrDeviceReset (the
// engine's fallback path absorbs them live), and the drain's own reset is
// folded into the storm baseline so it cannot re-trigger detection.
func TestLifecycleQuarantineDrains(t *testing.T) {
	p, lc, insts, cleanup := lcFixture(t, 1, LifecycleConfig{ResetStorm: 1})
	defer cleanup()

	// One op executing (blocked in Work), three parked on the rings.
	block := make(chan struct{})
	var mu sync.Mutex
	var drained int
	for k := 0; k < 4; k++ {
		err := insts[0].Submit(Request{
			Op:   OpRSA,
			Work: func() (any, error) { <-block; return nil, nil },
			Callback: func(r Response) {
				if r.Err == ErrDeviceReset {
					mu.Lock()
					drained++
					mu.Unlock()
				}
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}

	resetsBefore := sumResets(p.Device(0))
	lc.Quarantine(0, ReasonManual)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("state %v, want quarantined", lc.State(0))
	}
	if got := sumResets(p.Device(0)); got <= resetsBefore {
		t.Fatalf("quarantine did not reset the device: resets %d -> %d", resetsBefore, got)
	}

	// Let the engine flush the stale requests and the blocked one through.
	close(block)
	deadline := time.Now().Add(2 * time.Second)
	for {
		insts[0].Poll(0)
		mu.Lock()
		n := drained
		mu.Unlock()
		if n >= 3 && insts[0].Inflight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain incomplete: %d ErrDeviceReset responses, %d inflight", n, insts[0].Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	// The drain reset must not feed the storm detector: probation and a
	// successful probe later, the device stays healthy through a tick.
	lc.mu.Lock()
	trs := lc.transitionLocked(0, DevHealthy, ReasonManual, time.Now())
	lc.mu.Unlock()
	lc.fire(trs)
	lc.tick(time.Now())
	if lc.State(0) != DevHealthy {
		t.Fatalf("drain reset re-triggered storm detection: state %v", lc.State(0))
	}
}

// TestLifecycleProbationCycle pins quarantine → probation → healthy (and
// the probe-failure edge back to quarantine): the probation timer, the
// 1-in-ProbeTrickle admission trickle, and probe scoring via NoteResult.
func TestLifecycleProbationCycle(t *testing.T) {
	cfg := LifecycleConfig{
		ProbationAfter: 50 * time.Millisecond,
		ProbeTrickle:   4,
		ProbeSuccesses: 2,
	}
	_, lc, _, cleanup := lcFixture(t, 1, cfg)
	defer cleanup()
	snap := recordTransitions(lc)

	lc.Quarantine(0, ReasonManual)
	// Before the dwell elapses the device stays quarantined.
	lc.tick(time.Now().Add(10 * time.Millisecond))
	if lc.State(0) != DevQuarantined {
		t.Fatalf("probation began early: %v", lc.State(0))
	}
	lc.tick(time.Now().Add(cfg.ProbationAfter + 10*time.Millisecond))
	if lc.State(0) != DevProbation {
		t.Fatalf("after dwell: %v, want probation", lc.State(0))
	}
	if !lc.Routable(0) {
		t.Fatal("probation device must be routable (it needs probe traffic)")
	}
	// The trickle admits exactly 1 in ProbeTrickle decisions.
	admitted := 0
	for i := 0; i < 2*cfg.ProbeTrickle; i++ {
		if lc.Admit(0) {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("trickle admitted %d of %d, want 2", admitted, 2*cfg.ProbeTrickle)
	}

	// Two clean probes re-admit the device.
	lc.NoteResult(0, true)
	if lc.State(0) != DevProbation {
		t.Fatalf("one probe short of re-admission: %v", lc.State(0))
	}
	lc.NoteResult(0, true)
	if lc.State(0) != DevHealthy {
		t.Fatalf("after %d clean probes: %v, want healthy", cfg.ProbeSuccesses, lc.State(0))
	}
	// Results outside probation are ignored.
	lc.NoteResult(0, false)
	if lc.State(0) != DevHealthy {
		t.Fatalf("NoteResult outside probation changed state to %v", lc.State(0))
	}

	// A failed probe sends the device straight back to quarantine.
	lc.Quarantine(0, ReasonManual)
	lc.tick(time.Now().Add(cfg.ProbationAfter + 10*time.Millisecond))
	if lc.State(0) != DevProbation {
		t.Fatalf("second probation: %v", lc.State(0))
	}
	lc.NoteResult(0, false)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("failed probe: %v, want quarantined", lc.State(0))
	}

	// So does a breaker opening mid-probation.
	lc.tick(time.Now().Add(cfg.ProbationAfter + 10*time.Millisecond))
	if lc.State(0) != DevProbation {
		t.Fatalf("third probation: %v", lc.State(0))
	}
	lc.NoteBreakerOpen(0)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("breaker open during probation: %v, want quarantined", lc.State(0))
	}

	reasons := []LifecycleReason{}
	for _, tr := range snap() {
		reasons = append(reasons, tr.Reason)
	}
	want := []LifecycleReason{ReasonManual, ReasonProbation, ReasonProbeOK,
		ReasonManual, ReasonProbation, ReasonProbeFail,
		ReasonProbation, ReasonProbeFail}
	if len(reasons) != len(want) {
		t.Fatalf("transition reasons %v, want %v", reasons, want)
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("transition reasons %v, want %v", reasons, want)
		}
	}
}

// TestLifecycleWedgeWatchdog pins the wedge input: in-flight work with no
// completions for WedgeTimeout quarantines the device, while an idle
// device (or one making progress) never trips it.
func TestLifecycleWedgeWatchdog(t *testing.T) {
	cfg := LifecycleConfig{WedgeTimeout: 50 * time.Millisecond}
	_, lc, insts, cleanup := lcFixture(t, 2, cfg)
	defer cleanup()

	block := make(chan struct{})
	defer close(block)
	if err := insts[0].Submit(Request{Op: OpRSA, Work: func() (any, error) { <-block; return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	lc.tick(start) // arms the progress baseline; not yet past the deadline
	if lc.State(0) != DevHealthy {
		t.Fatalf("wedge fired before deadline: %v", lc.State(0))
	}
	lc.tick(start.Add(cfg.WedgeTimeout + 10*time.Millisecond))
	if lc.State(0) != DevQuarantined {
		t.Fatalf("wedged device state %v, want quarantined", lc.State(0))
	}
	// Device 1 is idle the whole time: no inflight means no wedge, however
	// long the clock advances.
	lc.tick(start.Add(time.Hour))
	if lc.State(1) != DevHealthy {
		t.Fatalf("idle device state %v, want healthy", lc.State(1))
	}
}

// TestLifecycleResetStorm pins the reset-storm input: ResetStorm endpoint
// resets inside the window quarantine the device on the next tick.
// TestLifecycleWedgeSurvivesReclaim pins the watchdog against submitters
// whose op deadline is shorter than its tick: every stalled request is
// given up on and its slot reclaimed before the next tick looks, so the
// rings are empty each time — and the device still completes nothing.
// Empty-because-reclaimed must not read as idle.
func TestLifecycleWedgeSurvivesReclaim(t *testing.T) {
	spec := DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8,
		Injector: fault.NewInjector(1, fault.Rule{Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1})}
	p := NewPool(1, spec)
	defer p.Close()
	inst, err := p.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LifecycleConfig{WedgeTimeout: 50 * time.Millisecond}
	lc := NewLifecycle(p, cfg)

	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); inst.Leaked() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("stall fault never leaked the slot")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if inst.ReclaimLeaked() != 1 || inst.Inflight() != 0 {
			t.Fatalf("reclaim left inflight=%d", inst.Inflight())
		}
		lc.tick(start.Add(time.Duration(i) * 10 * time.Millisecond))
		if lc.State(0) != DevHealthy {
			t.Fatalf("wedge fired before its timeout: %v", lc.State(0))
		}
	}
	lc.tick(start.Add(cfg.WedgeTimeout + 10*time.Millisecond))
	if lc.State(0) != DevQuarantined {
		t.Fatalf("device that swallowed every request is %v, want quarantined", lc.State(0))
	}
}

func TestLifecycleResetStorm(t *testing.T) {
	cfg := LifecycleConfig{ResetStorm: 2}
	p, lc, _, cleanup := lcFixture(t, 2, cfg)
	defer cleanup()
	snap := recordTransitions(lc)

	p.Device(0).Reset()
	lc.tick(time.Now())
	if lc.State(0) != DevHealthy {
		t.Fatalf("one reset quarantined the device: %v", lc.State(0))
	}
	p.Device(0).Reset()
	lc.tick(time.Now())
	if lc.State(0) != DevQuarantined {
		t.Fatalf("after %d resets: %v, want quarantined", cfg.ResetStorm, lc.State(0))
	}
	trs := snap()
	if len(trs) != 1 || trs[0].Reason != ReasonResetStorm {
		t.Fatalf("transitions %v, want one reset-storm quarantine", trs)
	}
}

// TestLifecycleStartStop smoke-tests the real watchdog goroutine: Start is
// idempotent, Stop joins it, and a storm is detected without manual ticks.
func TestLifecycleStartStop(t *testing.T) {
	cfg := LifecycleConfig{ResetStorm: 1, PollInterval: 5 * time.Millisecond}
	p, lc, _, cleanup := lcFixture(t, 1, cfg)
	defer cleanup()

	lc.Start()
	lc.Start() // idempotent
	p.Device(0).Reset()
	deadline := time.Now().Add(2 * time.Second)
	for lc.State(0) != DevQuarantined {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never quarantined the device: %v", lc.State(0))
		}
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	lc.Stop() // idempotent
}

// TestPoolRoutingAllQuarantined pins the no-device path the whole stack
// sheds on: with every device quarantined, RouteConn returns -1 instead of
// hanging work on a corpse — and routing resumes, back at the original
// home, once a device recovers.
func TestPoolRoutingAllQuarantined(t *testing.T) {
	p, lc, _, cleanup := lcFixture(t, 3, LifecycleConfig{})
	defer cleanup()

	// Quarantine device 1 only: RouteConn walks forward.
	lc.Quarantine(1, ReasonManual)
	// hash 4 % 3 == 1: home is quarantined, the walk lands on 2 — and the
	// same hash returns home once device 1 recovers (re-home-back).
	if got := p.RouteConn(4); got != 2 {
		t.Fatalf("RouteConn(4) with dev1 quarantined = %d, want 2", got)
	}
	if got := p.RouteConn(3); got != 0 {
		t.Fatalf("RouteConn(3) (healthy home) = %d, want 0", got)
	}

	lc.Quarantine(0, ReasonManual)
	lc.Quarantine(2, ReasonManual)
	if got := p.RouteConn(4); got != -1 {
		t.Fatalf("RouteConn all-quarantined = %d, want -1", got)
	}
	health := p.Health()
	for i, h := range health {
		if h.State != DevQuarantined {
			t.Fatalf("Health()[%d].State = %v, want quarantined", i, h.State)
		}
	}

	// Recovery: device 1 comes back, the conn re-homes to its original home.
	lc.mu.Lock()
	trs := lc.transitionLocked(1, DevHealthy, ReasonManual, time.Now())
	lc.mu.Unlock()
	lc.fire(trs)
	if got := p.RouteConn(4); got != 1 {
		t.Fatalf("RouteConn(4) after recovery = %d, want home device 1", got)
	}
}
