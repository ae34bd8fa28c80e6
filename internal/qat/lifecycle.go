package qat

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Health management: one state machine per pool, judging every device and,
// inside each device, every crypto instance it watches. The instance
// circuit answers "should this submission try that instance"; the device
// state answers "should any work be homed on that device at all" — and,
// crucially, probes a quarantined device back to health instead of
// abandoning it forever. An instance trip is the device's breaker-density
// input, so both levels see the same outcomes through one admit call and
// one result call per op.
//
// Instance circuit (a rolling window of the last breakerWindow outcomes):
//
//	closed ──≥ 50 % failures over ≥ 4 outcomes──▶ open
//	open ──BreakerCooldown elapsed, next admission──▶ half-open
//	half-open ──breakerProbes successes──▶ closed
//	half-open ──a failure──▶ open
//
// Device states:
//
//	healthy ──instance trips──▶ suspect ──more trips──▶ quarantined
//	healthy ──reset storm / wedge────────────────────▶ quarantined
//	suspect ──window drains──▶ healthy
//	quarantined ──probationAfter elapses──▶ probation
//	probation ──probeSuccesses clean ops──▶ healthy
//	probation ──any failure / instance trip / wedge──▶ quarantined
//
// Quarantine entry drains the device: a Reset fails its in-flight
// requests with ErrDeviceReset (the engine's retry/fallback path absorbs
// them), the requests stalled engines swallowed included, so nothing
// stays parked on the corpse. Probation admits a 1-in-probeTrickle trickle of real ops;
// their outcomes decide re-admission.
//
// Time comes from the clock injected at construction. The timed device
// edges (reset storm, wedge, suspect decay, probation) are evaluated by
// Tick, which every worker loop calls once per iteration and a
// straight-mode op calls on each turn of its spin (the spin holds its
// worker inside one iteration); the circuit's cooldown is read when an
// open instance is next offered a submission.

// The tuning, sized for the in-process device model (sub-second windows;
// production hardware would use multi-second ones).
const (
	breakerWindow     = 16 // outcomes in an instance's rolling window
	breakerTripPct    = 50 // failure share of the window that trips it
	breakerMinSamples = 4  // outcomes before the share is meaningful
	// BreakerCooldown is how long a tripped instance stays open before it
	// admits half-open probes.
	BreakerCooldown = 100 * time.Millisecond
	breakerProbes   = 2 // half-open successes that close the circuit

	densityWindow   = time.Second // trips and resets are counted over this
	suspectOpens    = 1           // trips in the window that mark a device suspect
	quarantineOpens = 3           // trips in the window that quarantine it
	resetStorm      = 3           // endpoint resets in the window that quarantine it
	// wedgeTimeout quarantines a device that completes nothing for this
	// long while it holds in-flight work — or has emptied its rings only
	// because submitters timed out and reclaimed the stalled slots: an op
	// deadline shorter than the watchdog tick must not make a dead device
	// look idle. The watchdog for the all-engines-stalled failure no
	// instance circuit may ever see.
	wedgeTimeout   = 400 * time.Millisecond
	probationAfter = 500 * time.Millisecond // quarantine dwell before probing
	probeTrickle   = 8                      // probation admits one in this many submissions
	probeSuccesses = 8                      // consecutive clean probes that re-admit a device

	tickInterval = 20 * time.Millisecond // Tick's rate limit
)

// DeviceState is one device's lifecycle state.
type DeviceState int32

const (
	// DevHealthy: the device takes its full share of work.
	DevHealthy DeviceState = iota
	// DevSuspect: failures were observed recently but below the
	// quarantine threshold; routing is unchanged, the window is watched.
	DevSuspect
	// DevQuarantined: the device takes no work. RouteConn routes around
	// it; its in-flight ops were drained through the fallback path.
	DevQuarantined
	// DevProbation: a trickle of real ops is admitted to probe recovery.
	DevProbation
)

// String returns the state name (the qtls_device_state gauge value is the
// ordinal).
func (s DeviceState) String() string {
	switch s {
	case DevHealthy:
		return "healthy"
	case DevSuspect:
		return "suspect"
	case DevQuarantined:
		return "quarantined"
	case DevProbation:
		return "probation"
	default:
		return "state(?)"
	}
}

// BreakerState is one crypto instance's circuit state. The ordinals are
// journaled as flight.KindBreaker codes.
type BreakerState int32

const (
	// BreakerClosed: the instance is healthy; submissions flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the instance tripped; submissions are routed away until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a limited number of probe
	// submissions test whether the instance recovered.
	BreakerHalfOpen
)

// String returns the conventional circuit-state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// LifecycleReason says why a device transition happened. The ordinals
// are journaled as flight.KindLifecycle codes.
type LifecycleReason uint8

const (
	// ReasonBreakerDensity: too many instance trips inside the window.
	ReasonBreakerDensity LifecycleReason = iota
	// ReasonResetStorm: too many endpoint resets inside the window.
	ReasonResetStorm
	// ReasonWedge: requests outstanding or swallowed, and no completion,
	// for wedgeTimeout.
	ReasonWedge
	// ReasonProbation: quarantine matured into the probing state.
	ReasonProbation
	// ReasonProbeOK: enough probe ops succeeded; full re-admission.
	ReasonProbeOK
	// ReasonProbeFail: a probe op failed; back to quarantine.
	ReasonProbeFail
	// ReasonDecay: a suspect window drained without further failures.
	ReasonDecay
	// ReasonManual: an operator forced the transition.
	ReasonManual
)

// String returns the reason name used in logs and dumps.
func (r LifecycleReason) String() string {
	names := [...]string{"breaker-density", "reset-storm", "wedge",
		"probation", "probe-ok", "probe-fail", "decay", "manual"}
	if int(r) < len(names) {
		return names[r]
	}
	return "reason(?)"
}

// Transition is one device state change, delivered to the OnTransition
// hook (journaling, gauges, re-home notification).
type Transition struct {
	Dev    int
	From   DeviceState
	To     DeviceState
	Reason LifecycleReason
	At     time.Time
}

// BreakerSnapshot is a point-in-time health summary of one instance.
type BreakerSnapshot struct {
	State     BreakerState
	Successes int64
	Failures  int64
	Trips     int64
}

// String renders the snapshot for stub_status / qatinfo output.
func (s BreakerSnapshot) String() string {
	return fmt.Sprintf("%s ok=%d fail=%d trips=%d", s.State, s.Successes, s.Failures, s.Trips)
}

// instHealth is one instance's circuit. It lives in the Instance and only
// the Lifecycle that watches the instance drives it. state is read
// lock-free (Admit's closed fast path); the rest is guarded by mu.
type instHealth struct {
	dev  int // pool index of the instance's device; -1 outside the pool
	onTr func(from, to BreakerState)

	state     atomic.Int32 // BreakerState
	mu        sync.Mutex
	window    [breakerWindow]bool // true = failure; ring buffer
	widx      int
	filled    int
	openedAt  time.Time
	probes    int // half-open successes so far
	inProbe   int // half-open probes admitted but unresolved
	successes int64
	failures  int64
	trips     int64
}

// lcDev is one device's lifecycle bookkeeping, guarded by Lifecycle.mu
// except where noted.
type lcDev struct {
	opens      []time.Time // instance-trip timestamps within densityWindow
	resetTimes []time.Time // reset timestamps within densityWindow (from deltas)
	lastResets int64       // Device.Resets() sum at the last tick

	lastDequeued  int64     // summed InstanceStats.Dequeued at last progress
	lastReclaimed int64     // summed InstanceStats.Reclaimed at last progress
	lastProgress  time.Time // when completions (or idleness) last advanced

	quarantinedAt time.Time
	probeOK       int

	trickle atomic.Int64 // probation admission counter (lock-free)
}

// Lifecycle is the pool's health manager. Construct with NewLifecycle,
// wire SetOnTransition, Watch each instance before it takes traffic, and
// call Tick from the worker loops. The hot-path methods (State, Admit,
// Routable, Epoch, and Result on a closed circuit outside probation) take
// no manager lock.
type Lifecycle struct {
	pool *Pool
	now  func() time.Time

	states   []atomic.Int32 // DeviceState per device
	epoch    atomic.Int64   // bumped on every device transition; workers poll it
	lastTick atomic.Int64   // clock (UnixNano) of the last watchdog pass

	mu   sync.Mutex
	devs []*lcDev
	onTr func(Transition)
}

// NewLifecycle builds a health manager for the pool's devices (all
// initially healthy) and registers it with the pool, so RouteConn routes
// around quarantined devices from now on. now is the clock every timed
// edge reads; nil means wall time.
func NewLifecycle(pool *Pool, now func() time.Time) *Lifecycle {
	if now == nil {
		now = time.Now
	}
	lc := &Lifecycle{
		pool:   pool,
		now:    now,
		states: make([]atomic.Int32, pool.Size()),
		devs:   make([]*lcDev, pool.Size()),
	}
	start := now()
	lc.lastTick.Store(start.UnixNano())
	for i := range lc.devs {
		lc.devs[i] = &lcDev{lastProgress: start, lastResets: sumResets(pool.Device(i))}
	}
	pool.setLifecycle(lc)
	return lc
}

// SetOnTransition installs the device-transition hook (journaling, gauges,
// worker re-home notification). The hook runs outside the manager lock, on
// whichever goroutine triggered the transition.
func (lc *Lifecycle) SetOnTransition(fn func(Transition)) {
	lc.mu.Lock()
	lc.onTr = fn
	lc.mu.Unlock()
}

// Watch puts inst under the manager: its circuit starts closed and its
// trips count toward its device's density (an instance outside the pool
// keeps only its circuit). onBreaker, when set, hears every circuit
// transition, outside every lock, on the goroutine that caused it. Call
// it before the instance takes traffic.
func (lc *Lifecycle) Watch(inst *Instance, onBreaker func(from, to BreakerState)) {
	h := &inst.health
	h.dev = -1
	for i, d := range lc.pool.devs {
		if d == inst.ep.dev {
			h.dev = i
		}
	}
	h.onTr = onBreaker
}

// State returns device dev's lifecycle state. Lock-free.
func (lc *Lifecycle) State(dev int) DeviceState {
	if dev < 0 || dev >= len(lc.states) {
		return DevHealthy
	}
	return DeviceState(lc.states[dev].Load())
}

// States returns a snapshot of every device's state, indexed by device.
func (lc *Lifecycle) States() []DeviceState {
	out := make([]DeviceState, len(lc.states))
	for i := range lc.states {
		out[i] = DeviceState(lc.states[i].Load())
	}
	return out
}

// Epoch returns the transition epoch: a counter bumped on every device
// state change. Workers compare it against their cached value once per
// loop iteration — one atomic load — and re-derive placement when it
// moved.
func (lc *Lifecycle) Epoch() int64 { return lc.epoch.Load() }

// Routable reports whether routing decisions (RouteConn) may target the
// device: everything but quarantine. Lock-free.
func (lc *Lifecycle) Routable(dev int) bool {
	return lc.State(dev) != DevQuarantined
}

// Admit decides one submission to inst. Its device must admit it —
// healthy and suspect devices admit everything, quarantined devices
// nothing, a device on probation a 1-in-probeTrickle trickle of real ops
// as probes — and so must its circuit: an open instance admits nothing
// until BreakerCooldown has passed, then turns half-open and admits up to
// breakerProbes unresolved probes. A submission the ring then refuses is
// handed back with Refused. Lock-free while the circuit is closed.
func (lc *Lifecycle) Admit(inst *Instance) bool {
	h := &inst.health
	if dev := h.dev; dev >= 0 {
		switch DeviceState(lc.states[dev].Load()) {
		case DevQuarantined:
			return false
		case DevProbation:
			if lc.devs[dev].trickle.Add(1)%probeTrickle != 0 {
				return false
			}
		}
	}
	if BreakerState(h.state.Load()) == BreakerClosed {
		return true
	}
	now := lc.now()
	h.mu.Lock()
	from := BreakerState(h.state.Load())
	ok := false
	switch from {
	case BreakerClosed:
		ok = true
	case BreakerOpen:
		if now.Sub(h.openedAt) >= BreakerCooldown {
			h.state.Store(int32(BreakerHalfOpen))
			h.probes, h.inProbe = 0, 1
			ok = true
		}
	case BreakerHalfOpen:
		if h.inProbe < breakerProbes {
			h.inProbe++
			ok = true
		}
	}
	to := BreakerState(h.state.Load())
	h.mu.Unlock()
	h.fire(from, to)
	return ok
}

// Refused hands back an admission whose submission the ring refused
// (ErrRingFull). Ring-full is backpressure, not an outcome: it must not
// keep the half-open probe slot it took, or a few refusals would leave the
// circuit half-open with every slot held and no probe ever scored.
func (lc *Lifecycle) Refused(inst *Instance) {
	h := &inst.health
	if BreakerState(h.state.Load()) != BreakerHalfOpen {
		return
	}
	h.mu.Lock()
	if BreakerState(h.state.Load()) == BreakerHalfOpen && h.inProbe > 0 {
		h.inProbe--
	}
	h.mu.Unlock()
}

// Result feeds one offload outcome on inst (a timeout, reset or rejected
// result is a failure). A device on probation scores it as a probe; the
// circuit counts it, and a trip — reported as true — also counts toward
// the device's density.
func (lc *Lifecycle) Result(inst *Instance, ok bool) (tripped bool) {
	h := &inst.health
	lc.noteProbe(h.dev, ok)
	var now time.Time
	if !ok {
		now = lc.now() // the trip time, should this failure trip
	}
	h.mu.Lock()
	from := BreakerState(h.state.Load())
	if ok {
		h.successes++
		switch from {
		case BreakerHalfOpen:
			h.probes++
			if h.inProbe > 0 {
				h.inProbe--
			}
			if h.probes >= breakerProbes {
				// Recovered: close and forget the bad window.
				h.state.Store(int32(BreakerClosed))
				h.window = [breakerWindow]bool{}
				h.widx, h.filled, h.probes, h.inProbe = 0, 0, 0, 0
			}
		case BreakerClosed:
			h.push(false)
		}
	} else {
		h.failures++
		switch from {
		case BreakerHalfOpen:
			tripped = true // a failed probe reopens immediately
			h.inProbe = 0
		case BreakerClosed:
			h.push(true)
			tripped = h.filled >= breakerMinSamples && 100*h.failed() >= breakerTripPct*h.filled
		}
		if tripped {
			h.state.Store(int32(BreakerOpen))
			h.openedAt = now
			h.trips++
		}
	}
	to := BreakerState(h.state.Load())
	h.mu.Unlock()
	h.fire(from, to)
	if tripped {
		lc.noteOpen(h.dev, now)
	}
	return tripped
}

// push records one outcome in the rolling window (h.mu held).
func (h *instHealth) push(failure bool) {
	h.window[h.widx] = failure
	h.widx = (h.widx + 1) % breakerWindow
	if h.filled < breakerWindow {
		h.filled++
	}
}

// failed counts the failures in the window (h.mu held).
func (h *instHealth) failed() int {
	n := 0
	for _, f := range h.window[:h.filled] {
		if f {
			n++
		}
	}
	return n
}

// fire delivers one circuit transition to the watcher's hook.
func (h *instHealth) fire(from, to BreakerState) {
	if h.onTr != nil && from != to {
		h.onTr(from, to)
	}
}

// Breaker returns the instance's circuit state and cumulative outcome
// counters (closed and zero for an instance no Lifecycle watches).
func (inst *Instance) Breaker() BreakerSnapshot {
	h := &inst.health
	h.mu.Lock()
	defer h.mu.Unlock()
	return BreakerSnapshot{
		State:     BreakerState(h.state.Load()),
		Successes: h.successes,
		Failures:  h.failures,
		Trips:     h.trips,
	}
}

// noteOpen records one instance trip on device dev — the breaker-density
// input of the device state machine.
func (lc *Lifecycle) noteOpen(dev int, now time.Time) {
	if dev < 0 {
		return
	}
	lc.mu.Lock()
	d := lc.devs[dev]
	d.opens = append(d.opens, now)
	d.opens = pruneWindow(d.opens, now)
	n := len(d.opens)
	var trs []Transition
	switch DeviceState(lc.states[dev].Load()) {
	case DevHealthy:
		if n >= quarantineOpens {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonBreakerDensity, now)
		} else if n >= suspectOpens {
			trs = lc.transitionLocked(dev, DevSuspect, ReasonBreakerDensity, now)
		}
	case DevSuspect:
		if n >= quarantineOpens {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonBreakerDensity, now)
		}
	case DevProbation:
		// A trip during probation is a failed probe.
		trs = lc.transitionLocked(dev, DevQuarantined, ReasonProbeFail, now)
	}
	lc.mu.Unlock()
	lc.fire(trs)
}

// noteProbe scores one offload outcome on device dev. Only probation
// consumes it; outside probation the cost is one atomic load.
func (lc *Lifecycle) noteProbe(dev int, ok bool) {
	if dev < 0 || DeviceState(lc.states[dev].Load()) != DevProbation {
		return
	}
	now := lc.now()
	lc.mu.Lock()
	var trs []Transition
	if DeviceState(lc.states[dev].Load()) == DevProbation { // recheck under lock
		d := lc.devs[dev]
		if !ok {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonProbeFail, now)
		} else if d.probeOK++; d.probeOK >= probeSuccesses {
			trs = lc.transitionLocked(dev, DevHealthy, ReasonProbeOK, now)
		}
	}
	lc.mu.Unlock()
	lc.fire(trs)
}

// Quarantine forces device dev into quarantine (operator action, or a
// test fixture). No-op if already quarantined.
func (lc *Lifecycle) Quarantine(dev int, reason LifecycleReason) {
	now := lc.now()
	lc.mu.Lock()
	trs := lc.transitionLocked(dev, DevQuarantined, reason, now)
	lc.mu.Unlock()
	lc.fire(trs)
}

// transitionLocked performs one state change under lc.mu and returns the
// transition(s) to deliver after unlock. Quarantine entry drains the
// device: Reset fails its queued ops with ErrDeviceReset (absorbed by the
// engine's retry/fallback path), and so do the ops stalled engines
// swallowed.
func (lc *Lifecycle) transitionLocked(dev int, to DeviceState, reason LifecycleReason, now time.Time) []Transition {
	from := DeviceState(lc.states[dev].Load())
	if from == to {
		return nil
	}
	lc.states[dev].Store(int32(to))
	lc.epoch.Add(1)
	d := lc.devs[dev]
	switch to {
	case DevQuarantined:
		d.quarantinedAt = now
		d.probeOK = 0
		d.opens = d.opens[:0]
		// Drain: fail everything parked on the device so the submitters'
		// retry/fallback paths settle it now instead of at their deadlines
		// — or, with no deadline, at all.
		lc.pool.Device(dev).Reset()
		lc.pool.failStalled(dev)
		// The drain reset must not feed the storm detector.
		d.lastResets = sumResets(lc.pool.Device(dev))
		d.resetTimes = d.resetTimes[:0]
	case DevProbation:
		d.probeOK = 0
		d.trickle.Store(0)
	case DevHealthy:
		d.opens = d.opens[:0]
		d.resetTimes = d.resetTimes[:0]
	}
	// A state change invalidates the progress baseline either way.
	d.lastProgress = now
	_, d.lastDequeued, d.lastReclaimed = lc.pool.deviceRings(dev)
	return []Transition{{Dev: dev, From: from, To: to, Reason: reason, At: now}}
}

// fire delivers transitions to the hook outside the manager lock.
func (lc *Lifecycle) fire(trs []Transition) {
	if len(trs) == 0 {
		return
	}
	lc.mu.Lock()
	fn := lc.onTr
	lc.mu.Unlock()
	if fn == nil {
		return
	}
	for _, tr := range trs {
		fn(tr)
	}
}

// Tick runs one watchdog pass — reset-storm and wedge detection, suspect
// decay, the probation timer — at most once per tickInterval of the
// lifecycle's clock, however often it is called. Every worker loop calls
// it once per iteration (a loop parks for at most offload.IdleWait, so the
// pass is never more than that late), and so does every turn of a
// straight-mode spin; tests call it after advancing their clock. A call that is not due costs a clock read and one atomic load;
// the caller that is due claims the pass with one CAS.
func (lc *Lifecycle) Tick() {
	now := lc.now()
	last := lc.lastTick.Load()
	if now.UnixNano()-last < int64(tickInterval) || !lc.lastTick.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	var fireList []Transition
	lc.mu.Lock()
	for dev := range lc.devs {
		d := lc.devs[dev]
		state := DeviceState(lc.states[dev].Load())

		// Reset-storm detection: turn Device.Resets() deltas into
		// windowed timestamps. The drain reset performed at quarantine
		// entry was already folded into lastResets.
		cur := sumResets(lc.pool.Device(dev))
		for i := d.lastResets; i < cur; i++ {
			d.resetTimes = append(d.resetTimes, now)
		}
		d.lastResets = cur
		d.resetTimes = pruneWindow(d.resetTimes, now)

		if state == DevQuarantined {
			if now.Sub(d.quarantinedAt) >= probationAfter {
				fireList = append(fireList, lc.transitionLocked(dev, DevProbation, ReasonProbation, now)...)
			}
			continue
		}
		if state != DevProbation && len(d.resetTimes) >= resetStorm {
			fireList = append(fireList, lc.transitionLocked(dev, DevQuarantined, ReasonResetStorm, now)...)
			continue
		}
		// Wedge watchdog: work parked — or swallowed and reclaimed since
		// the last completion — and nothing completing. Empty rings count
		// as progress only if nothing was reclaimed. On probation a wedge
		// is a probe the device never answers, which no result would
		// ever score.
		inflight, dequeued, reclaimed := lc.pool.deviceRings(dev)
		if dequeued != d.lastDequeued || (inflight == 0 && reclaimed == d.lastReclaimed) {
			d.lastDequeued, d.lastReclaimed = dequeued, reclaimed
			d.lastProgress = now
		} else if now.Sub(d.lastProgress) >= wedgeTimeout {
			fireList = append(fireList, lc.transitionLocked(dev, DevQuarantined, ReasonWedge, now)...)
			continue
		}
		// Suspect decay: the trip window drained.
		if state == DevSuspect {
			d.opens = pruneWindow(d.opens, now)
			if len(d.opens) == 0 {
				fireList = append(fireList, lc.transitionLocked(dev, DevHealthy, ReasonDecay, now)...)
			}
		}
	}
	lc.mu.Unlock()
	lc.fire(fireList)
}

// pruneWindow drops timestamps older than densityWindow before now, in
// place.
func pruneWindow(ts []time.Time, now time.Time) []time.Time {
	cut := 0
	for cut < len(ts) && now.Sub(ts[cut]) > densityWindow {
		cut++
	}
	if cut == 0 {
		return ts
	}
	return append(ts[:0], ts[cut:]...)
}

// sumResets totals a device's per-endpoint reset counters.
func sumResets(d *Device) int64 {
	var n int64
	for _, r := range d.Resets() {
		n += r
	}
	return n
}
