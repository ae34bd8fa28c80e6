package qat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtls/internal/fault"
)

// fakeClock is the lifecycle's injected clock in tests: it only moves when
// the test advances it, so every timed edge is exercised deterministically,
// without sleeps.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// lcFixture builds a pool with one watched instance per device and a
// lifecycle manager on a fake clock.
func lcFixture(t *testing.T, devices int) (*Pool, *Lifecycle, []*Instance, *fakeClock) {
	t.Helper()
	spec := DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8}
	p := NewPool(devices, spec)
	t.Cleanup(p.Close)
	clk := newFakeClock()
	lc := NewLifecycle(p, clk.Now)
	insts := make([]*Instance, devices)
	for i := range insts {
		var err error
		if insts[i], err = p.AllocInstance(i); err != nil {
			t.Fatalf("alloc dev %d: %v", i, err)
		}
		lc.Watch(insts[i], nil)
	}
	return p, lc, insts, clk
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

// trip drives inst's circuit open once more through the real outcome
// path: breakerMinSamples failures on a closed circuit, or a failed probe
// once the cooldown of an open one has passed.
func trip(t *testing.T, lc *Lifecycle, inst *Instance, clk *fakeClock) {
	t.Helper()
	if inst.Breaker().State != BreakerClosed {
		clk.Advance(BreakerCooldown)
		if !lc.Admit(inst) {
			t.Fatal("open circuit refused its probe after the cooldown")
		}
		if !lc.Result(inst, false) {
			t.Fatal("failed probe did not trip the circuit")
		}
		return
	}
	for i := 1; i <= breakerMinSamples; i++ {
		if got := lc.Result(inst, false); got != (i == breakerMinSamples) {
			t.Fatalf("failure %d: tripped=%v", i, got)
		}
	}
}

// TestLifecycleBreakerDensity pins the breaker-density input: one instance
// trip inside the window marks a device suspect, quarantineOpens trips
// quarantine it, and a suspect whose window drains decays back to healthy.
func TestLifecycleBreakerDensity(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 2)
	snap := recordTransitions(lc)

	if lc.State(0) != DevHealthy || lc.Epoch() != 0 {
		t.Fatalf("fresh lifecycle: state %v epoch %d", lc.State(0), lc.Epoch())
	}
	trip(t, lc, insts[0], clk)
	if lc.State(0) != DevSuspect {
		t.Fatalf("after 1 trip: %v, want suspect", lc.State(0))
	}
	if !lc.Routable(0) {
		t.Fatal("suspect device must stay routable")
	}
	trip(t, lc, insts[0], clk)
	if lc.State(0) != DevSuspect {
		t.Fatalf("after 2 trips: %v, want still suspect", lc.State(0))
	}
	trip(t, lc, insts[0], clk)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("after 3 trips: %v, want quarantined", lc.State(0))
	}
	clk.Advance(BreakerCooldown)
	if lc.Routable(0) || lc.Admit(insts[0]) {
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
	trip(t, lc, insts[1], clk)
	if lc.State(1) != DevSuspect {
		t.Fatalf("device 1 after 1 trip: %v, want suspect", lc.State(1))
	}
	clk.Advance(densityWindow / 2)
	lc.Tick()
	if lc.State(1) != DevSuspect {
		t.Fatalf("device 1 decayed inside the window: %v", lc.State(1))
	}
	clk.Advance(densityWindow)
	lc.Tick()
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
		// The same ticks mature device 0's quarantine.
		{0, DevQuarantined, DevProbation, ReasonProbation},
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
	p, lc, insts, clk := lcFixture(t, 1)

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
		runtime.Gosched()
	}

	// The drain reset must not feed the storm detector: back to healthy,
	// resetStorm-1 real resets inside the window stay below the storm —
	// they would not if the drain reset had been counted as well.
	lc.mu.Lock()
	trs := lc.transitionLocked(0, DevHealthy, ReasonManual, clk.Now())
	lc.mu.Unlock()
	lc.fire(trs)
	for i := 0; i < resetStorm-1; i++ {
		p.Device(0).Reset()
	}
	clk.Advance(tickInterval)
	lc.Tick()
	if lc.State(0) != DevHealthy {
		t.Fatalf("drain reset re-triggered storm detection: state %v", lc.State(0))
	}
}

// TestLifecycleProbationCycle pins quarantine → probation → healthy (and
// the probe-failure edges back to quarantine): the probation timer, the
// 1-in-probeTrickle admission trickle, and probe scoring via Result.
func TestLifecycleProbationCycle(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 1)
	snap := recordTransitions(lc)
	inst := insts[0]

	lc.Quarantine(0, ReasonManual)
	// Before the dwell elapses the device stays quarantined.
	clk.Advance(probationAfter / 2)
	lc.Tick()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("probation began early: %v", lc.State(0))
	}
	clk.Advance(probationAfter / 2)
	lc.Tick()
	if lc.State(0) != DevProbation {
		t.Fatalf("after dwell: %v, want probation", lc.State(0))
	}
	if !lc.Routable(0) {
		t.Fatal("probation device must be routable (it needs probe traffic)")
	}
	// The trickle admits exactly 1 in probeTrickle decisions.
	admitted := 0
	for i := 0; i < 2*probeTrickle; i++ {
		if lc.Admit(inst) {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("trickle admitted %d of %d, want 2", admitted, 2*probeTrickle)
	}

	// probeSuccesses clean probes re-admit the device.
	for i := 1; i < probeSuccesses; i++ {
		lc.Result(inst, true)
	}
	if lc.State(0) != DevProbation {
		t.Fatalf("one probe short of re-admission: %v", lc.State(0))
	}
	lc.Result(inst, true)
	if lc.State(0) != DevHealthy {
		t.Fatalf("after %d clean probes: %v, want healthy", probeSuccesses, lc.State(0))
	}
	// Results outside probation do not score probes.
	lc.Result(inst, false)
	if lc.State(0) != DevHealthy {
		t.Fatalf("a failure outside probation changed state to %v", lc.State(0))
	}

	// A failed probe sends the device straight back to quarantine.
	lc.Quarantine(0, ReasonManual)
	clk.Advance(probationAfter)
	lc.Tick()
	if lc.State(0) != DevProbation {
		t.Fatalf("second probation: %v", lc.State(0))
	}
	lc.Result(inst, false)
	if lc.State(0) != DevQuarantined {
		t.Fatalf("failed probe: %v, want quarantined", lc.State(0))
	}

	// So does an instance trip mid-probation.
	clk.Advance(probationAfter)
	lc.Tick()
	if lc.State(0) != DevProbation {
		t.Fatalf("third probation: %v", lc.State(0))
	}
	lc.noteOpen(0, clk.Now())
	if lc.State(0) != DevQuarantined {
		t.Fatalf("instance trip during probation: %v, want quarantined", lc.State(0))
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
// completions for wedgeTimeout quarantines the device, while an idle
// device (or one making progress) never trips it.
func TestLifecycleWedgeWatchdog(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 2)

	block := make(chan struct{})
	defer close(block)
	if err := insts[0].Submit(Request{Op: OpRSA, Work: func() (any, error) { <-block; return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(tickInterval)
	lc.Tick() // not yet past the deadline
	if lc.State(0) != DevHealthy {
		t.Fatalf("wedge fired before deadline: %v", lc.State(0))
	}
	clk.Advance(wedgeTimeout)
	lc.Tick()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("wedged device state %v, want quarantined", lc.State(0))
	}
	// Device 1 is idle the whole time: no inflight means no wedge, however
	// long the clock advances.
	clk.Advance(time.Hour)
	lc.Tick()
	if lc.State(1) != DevHealthy {
		t.Fatalf("idle device state %v, want healthy", lc.State(1))
	}
}

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
	clk := newFakeClock()
	lc := NewLifecycle(p, clk.Now)

	for i := 0; i < 3; i++ {
		if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); inst.Leaked() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("stall fault never leaked the slot")
			}
			runtime.Gosched()
		}
		if inst.ReclaimLeaked() != 1 || inst.Inflight() != 0 {
			t.Fatalf("reclaim left inflight=%d", inst.Inflight())
		}
		clk.Advance(tickInterval)
		lc.Tick()
		if lc.State(0) != DevHealthy {
			t.Fatalf("wedge fired before its timeout: %v", lc.State(0))
		}
	}
	clk.Advance(wedgeTimeout)
	lc.Tick()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("device that swallowed every request is %v, want quarantined", lc.State(0))
	}
}

// TestLifecycleDrainFailsStalled pins the drain for requests a stalled
// engine swallowed: the wedge quarantine fails them with ErrDeviceReset and
// frees their slots, so a submitter with no op deadline is answered
// instead of parked forever.
func TestLifecycleDrainFailsStalled(t *testing.T) {
	spec := DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8,
		Injector: fault.NewInjector(1, fault.Rule{Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1})}
	p := NewPool(1, spec)
	defer p.Close()
	inst, err := p.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	lc := NewLifecycle(p, clk.Now)

	const n = 3
	var failed atomic.Int32
	for i := 0; i < n; i++ {
		err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil },
			Callback: func(r Response) {
				if r.Err == ErrDeviceReset {
					failed.Add(1)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); inst.Leaked() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("stall fault leaked %d of %d slots", inst.Leaked(), n)
		}
		runtime.Gosched()
	}
	clk.Advance(wedgeTimeout)
	lc.Tick()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("wedged device state %v, want quarantined", lc.State(0))
	}
	if got := inst.Poll(0); got != n || failed.Load() != n {
		t.Fatalf("drain answered %d stalled requests (%d with ErrDeviceReset), want %d", got, failed.Load(), n)
	}
	if inst.Leaked() != 0 || inst.Inflight() != 0 {
		t.Fatalf("after the drain: leaked=%d inflight=%d", inst.Leaked(), inst.Inflight())
	}

	// On probation, a probe the device swallows is a wedge too: no result
	// would ever score it.
	clk.Advance(probationAfter)
	lc.Tick()
	if lc.State(0) != DevProbation {
		t.Fatalf("after the dwell: %v, want probation", lc.State(0))
	}
	snap := recordTransitions(lc)
	if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil },
		Callback: func(r Response) {
			if r.Err == ErrDeviceReset {
				failed.Add(1)
			}
		}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); inst.Leaked() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("stall fault never leaked the probe's slot")
		}
		runtime.Gosched()
	}
	clk.Advance(wedgeTimeout)
	lc.Tick()
	if trs := snap(); len(trs) != 1 || trs[0].To != DevQuarantined || trs[0].Reason != ReasonWedge {
		t.Fatalf("transitions %v, want one wedge quarantine from probation", trs)
	}
	if inst.Poll(0) != 1 || failed.Load() != n+1 {
		t.Fatalf("the swallowed probe was not answered: %d ErrDeviceReset responses, want %d", failed.Load(), n+1)
	}
}

// TestLifecycleResetStorm pins the reset-storm input: resetStorm endpoint
// resets inside the window quarantine the device on the next tick.
func TestLifecycleResetStorm(t *testing.T) {
	p, lc, _, clk := lcFixture(t, 2)
	snap := recordTransitions(lc)

	for i := 1; i < resetStorm; i++ {
		p.Device(0).Reset()
		clk.Advance(tickInterval)
		lc.Tick()
		if lc.State(0) != DevHealthy {
			t.Fatalf("%d resets quarantined the device: %v", i, lc.State(0))
		}
	}
	p.Device(0).Reset()
	clk.Advance(tickInterval)
	lc.Tick()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("after %d resets: %v, want quarantined", resetStorm, lc.State(0))
	}
	trs := snap()
	if len(trs) != 1 || trs[0].Reason != ReasonResetStorm {
		t.Fatalf("transitions %v, want one reset-storm quarantine", trs)
	}
}

// TestLifecycleTickRateLimit pins Tick's rate limit: however often the
// worker loops call it, a watchdog pass runs at most once per tickInterval
// of the injected clock — and the first due call runs it.
func TestLifecycleTickRateLimit(t *testing.T) {
	p, lc, _, clk := lcFixture(t, 1)
	for i := 0; i < resetStorm; i++ {
		p.Device(0).Reset()
	}
	lc.Tick()
	clk.Advance(tickInterval - 1)
	lc.Tick()
	if lc.State(0) != DevHealthy {
		t.Fatalf("a pass ran before the tick was due: %v", lc.State(0))
	}
	clk.Advance(1)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc.Tick()
		}()
	}
	wg.Wait()
	if lc.State(0) != DevQuarantined {
		t.Fatalf("the due tick never ran the storm detector: %v", lc.State(0))
	}
	if lc.Epoch() != 1 {
		t.Fatalf("epoch %d, want the one quarantine", lc.Epoch())
	}
}

// TestPoolRoutingAllQuarantined pins the no-device path the whole stack
// sheds on: with every device quarantined, RouteConn returns -1 instead of
// hanging work on a corpse — and routing resumes, back at the original
// home, once a device recovers.
func TestPoolRoutingAllQuarantined(t *testing.T) {
	p, lc, _, clk := lcFixture(t, 3)

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
	trs := lc.transitionLocked(1, DevHealthy, ReasonManual, clk.Now())
	lc.mu.Unlock()
	lc.fire(trs)
	if got := p.RouteConn(4); got != 1 {
		t.Fatalf("RouteConn(4) after recovery = %d, want home device 1", got)
	}
}

// The instance circuit, on the same fake clock.

func TestBreakerStartsClosed(t *testing.T) {
	_, lc, insts, _ := lcFixture(t, 1)
	if insts[0].Breaker().State != BreakerClosed || !lc.Admit(insts[0]) {
		t.Fatal("a watched instance should start closed and admitting")
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	_, lc, insts, _ := lcFixture(t, 1)
	inst := insts[0]
	// Below breakerMinSamples: no trip even at 100% failure.
	for i := 1; i < breakerMinSamples; i++ {
		if lc.Result(inst, false) {
			t.Fatalf("tripped at sample %d, below the minimum", i)
		}
	}
	if !lc.Result(inst, false) {
		t.Fatal("did not trip at the minimum with 100% failures")
	}
	if inst.Breaker().State != BreakerOpen || lc.Admit(inst) {
		t.Fatal("open circuit should reject submissions")
	}
	if s := inst.Breaker(); s.Trips != 1 {
		t.Fatalf("trips = %d", s.Trips)
	}
}

func TestBreakerSuccessesKeepItClosed(t *testing.T) {
	_, lc, insts, _ := lcFixture(t, 1)
	inst := insts[0]
	// 3 failures diluted by 5 successes: rate 3/8 < 50 %.
	for i := 0; i < 5; i++ {
		lc.Result(inst, true)
	}
	for i := 0; i < 3; i++ {
		if lc.Result(inst, false) {
			t.Fatal("tripped below threshold")
		}
	}
	if s := inst.Breaker().State; s != BreakerClosed {
		t.Fatalf("state = %v", s)
	}
}

func TestBreakerHalfOpenProbesAndRecovery(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 1)
	inst := insts[0]
	trip(t, lc, inst, clk)
	clk.Advance(BreakerCooldown - time.Millisecond)
	if lc.Admit(inst) {
		t.Fatal("open circuit admitted before its cooldown")
	}
	clk.Advance(time.Millisecond)
	// The first admission after the cooldown turns the circuit half-open.
	if !lc.Admit(inst) {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if s := inst.Breaker().State; s != BreakerHalfOpen {
		t.Fatalf("state = %v", s)
	}
	// Second probe admitted, third rejected (breakerProbes unresolved).
	if !lc.Admit(inst) {
		t.Fatal("second probe rejected")
	}
	if lc.Admit(inst) {
		t.Fatal("probe cap ignored")
	}
	// Two probe successes close the circuit.
	lc.Result(inst, true)
	if s := inst.Breaker().State; s != BreakerHalfOpen {
		t.Fatalf("closed after a single probe success: %v", s)
	}
	lc.Result(inst, true)
	if s := inst.Breaker().State; s != BreakerClosed {
		t.Fatalf("state after recovery = %v", s)
	}
	// The old bad window must not instantly re-trip on one failure.
	if lc.Result(inst, false) {
		t.Fatal("stale window re-tripped a recovered circuit")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 1)
	inst := insts[0]
	trip(t, lc, inst, clk)
	clk.Advance(BreakerCooldown)
	if !lc.Admit(inst) {
		t.Fatal("probe rejected")
	}
	if !lc.Result(inst, false) {
		t.Fatal("failed probe should count as a trip")
	}
	if s := inst.Breaker().State; s != BreakerOpen {
		t.Fatalf("state = %v", s)
	}
	// The cooldown restarts from the probe failure.
	clk.Advance(BreakerCooldown / 2)
	if lc.Admit(inst) {
		t.Fatal("reopened circuit admitted before its new cooldown")
	}
	if s := inst.Breaker(); s.Trips != 2 {
		t.Fatalf("trips = %d", s.Trips)
	}
}

// TestBreakerRefusedReleasesProbe pins the ring-full hand-back: probe
// slots the ring refused are released, so the circuit keeps probing.
func TestBreakerRefusedReleasesProbe(t *testing.T) {
	_, lc, insts, clk := lcFixture(t, 1)
	inst := insts[0]
	trip(t, lc, inst, clk)
	clk.Advance(BreakerCooldown)
	for i := 0; i < breakerProbes; i++ {
		if !lc.Admit(inst) {
			t.Fatalf("probe %d rejected", i)
		}
		lc.Refused(inst)
	}
	if !lc.Admit(inst) {
		t.Fatal("refused probes kept their slots: the circuit admits nothing")
	}
	// Refusals outside half-open are no-ops.
	lc.Result(inst, true)
	lc.Result(inst, true)
	lc.Refused(inst)
	if s := inst.Breaker().State; s != BreakerClosed {
		t.Fatalf("state = %v", s)
	}
}

func TestBreakerSnapshotString(t *testing.T) {
	_, lc, insts, _ := lcFixture(t, 1)
	lc.Result(insts[0], true)
	lc.Result(insts[0], false)
	s := insts[0].Breaker()
	if s.Successes != 1 || s.Failures != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if got, want := s.String(), "closed ok=1 fail=1 trips=0"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
