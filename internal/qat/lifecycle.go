package qat

import (
	"sync"
	"sync/atomic"
	"time"
)

// Device lifecycle management: the pool-level state machine that turns
// instance-level failure signals (circuit-breaker trips, endpoint reset
// storms, wedged rings) into device-level routing decisions. Where the
// engine's per-instance breakers answer "should this submission try that
// instance", the lifecycle answers "should any work be homed on that
// device at all" — and, crucially, probes a quarantined device back to
// health instead of abandoning it forever.
//
// States and transitions:
//
//	healthy ──breaker opens──▶ suspect ──more opens──▶ quarantined
//	healthy ──reset storm / wedge────────────────────▶ quarantined
//	suspect ──window drains──▶ healthy
//	quarantined ──ProbationAfter elapses──▶ probation
//	probation ──ProbeSuccesses clean ops──▶ healthy
//	probation ──any failure / breaker open──▶ quarantined
//
// Quarantine entry drains the device: a Reset fails its in-flight
// requests with ErrDeviceReset (the engine's retry/fallback path absorbs
// them) and leaked ring slots are reclaimed, so nothing stays parked on
// the corpse. Probation admits a 1-in-ProbeTrickle trickle of real ops;
// their outcomes decide re-admission.

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

	numDeviceStates = 4
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

// LifecycleReason says why a lifecycle transition happened. The ordinals
// are journaled as flight.KindLifecycle codes (see flight's
// lifecycleReasons table — keep the two in step).
type LifecycleReason uint8

const (
	// ReasonBreakerDensity: too many breaker opens inside the window.
	ReasonBreakerDensity LifecycleReason = iota
	// ReasonResetStorm: too many endpoint resets inside the window.
	ReasonResetStorm
	// ReasonWedge: requests outstanding or swallowed, and no completion,
	// for WedgeTimeout.
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

// LifecycleConfig tunes the state machine. The zero value resolves to
// defaults sized for the in-process device model (sub-second windows);
// production hardware would use multi-second ones.
type LifecycleConfig struct {
	// Window is the rolling window breaker opens and resets are counted
	// in (default 1s).
	Window time.Duration
	// SuspectOpens is the breaker-open count within Window that marks a
	// device suspect (default 1).
	SuspectOpens int
	// QuarantineOpens is the breaker-open count within Window that
	// quarantines a device (default 3).
	QuarantineOpens int
	// ResetStorm is the endpoint-reset count within Window that
	// quarantines a device (default 3).
	ResetStorm int
	// WedgeTimeout quarantines a device that completes nothing for this
	// long (default 400ms) while it holds in-flight work — or has emptied
	// its rings only because submitters timed out and reclaimed the
	// stalled slots: an op deadline shorter than the watchdog tick must
	// not make a dead device look idle. The watchdog for the
	// all-engines-stalled failure a breaker may never see.
	WedgeTimeout time.Duration
	// ProbationAfter is the quarantine dwell time before probing begins
	// (default 500ms).
	ProbationAfter time.Duration
	// ProbeTrickle admits one in this many routing decisions during
	// probation (default 8).
	ProbeTrickle int
	// ProbeSuccesses is the count of consecutive successful probe ops
	// that re-admits the device (default 8).
	ProbeSuccesses int
	// PollInterval is the watchdog tick (default 20ms): reset-storm and
	// wedge detection, suspect decay and the probation timer all run on
	// it.
	PollInterval time.Duration
}

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.SuspectOpens <= 0 {
		c.SuspectOpens = 1
	}
	if c.QuarantineOpens <= 0 {
		c.QuarantineOpens = 3
	}
	if c.ResetStorm <= 0 {
		c.ResetStorm = 3
	}
	if c.WedgeTimeout <= 0 {
		c.WedgeTimeout = 400 * time.Millisecond
	}
	if c.ProbationAfter <= 0 {
		c.ProbationAfter = 500 * time.Millisecond
	}
	if c.ProbeTrickle <= 0 {
		c.ProbeTrickle = 8
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 8
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 20 * time.Millisecond
	}
	return c
}

// Transition is one lifecycle state change, delivered to the OnTransition
// hook (journaling, gauges, re-home notification).
type Transition struct {
	Dev    int
	From   DeviceState
	To     DeviceState
	Reason LifecycleReason
	At     time.Time
}

// lcDev is one device's lifecycle bookkeeping, guarded by Lifecycle.mu
// except where noted.
type lcDev struct {
	opens      []time.Time // breaker-open timestamps within Window
	resetTimes []time.Time // reset timestamps within Window (from deltas)
	lastResets int64       // Device.Resets() sum at the last tick

	lastDequeued  int64     // summed InstanceStats.Dequeued at last progress
	lastReclaimed int64     // summed InstanceStats.Reclaimed at last progress
	lastProgress  time.Time // when completions (or idleness) last advanced

	quarantinedAt time.Time
	probeOK       int

	trickle atomic.Int64 // probation admission counter (lock-free)
}

// Lifecycle is the per-pool device lifecycle manager. Construct with
// NewLifecycle, wire OnTransition, then Start the watchdog. The hot-path
// methods (State, Admit, Routable, Epoch) are lock-free; the signal
// inputs (NoteBreakerOpen, NoteResult) take the manager lock only when a
// transition may be due.
type Lifecycle struct {
	pool *Pool
	cfg  LifecycleConfig

	states []atomic.Int32 // DeviceState per device
	epoch  atomic.Int64   // bumped on every transition; workers poll it

	mu     sync.Mutex
	devs   []*lcDev
	onTr   func(Transition)
	stop   chan struct{}
	done   chan struct{}
	active bool
}

// NewLifecycle builds a lifecycle manager for the pool's devices (all
// initially healthy) and registers it with the pool, so RouteConn routes
// around quarantined devices from now on.
func NewLifecycle(pool *Pool, cfg LifecycleConfig) *Lifecycle {
	lc := &Lifecycle{
		pool:   pool,
		cfg:    cfg.withDefaults(),
		states: make([]atomic.Int32, pool.Size()),
		devs:   make([]*lcDev, pool.Size()),
	}
	now := time.Now()
	for i := range lc.devs {
		lc.devs[i] = &lcDev{lastProgress: now}
		for _, r := range pool.Device(i).Resets() {
			lc.devs[i].lastResets += r
		}
	}
	pool.setLifecycle(lc)
	return lc
}

// SetOnTransition installs the transition hook (journaling, gauges,
// worker re-home notification). The hook runs outside the manager lock,
// on whichever goroutine triggered the transition. Set it before Start.
func (lc *Lifecycle) SetOnTransition(fn func(Transition)) {
	lc.mu.Lock()
	lc.onTr = fn
	lc.mu.Unlock()
}

// Config returns the resolved (defaulted) configuration.
func (lc *Lifecycle) Config() LifecycleConfig { return lc.cfg }

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

// Epoch returns the transition epoch: a counter bumped on every state
// change. Workers compare it against their cached value once per loop
// iteration — one atomic load — and re-derive placement when it moved.
func (lc *Lifecycle) Epoch() int64 { return lc.epoch.Load() }

// Routable reports whether routing decisions (RouteConn) may target the
// device: everything but quarantine. Lock-free.
func (lc *Lifecycle) Routable(dev int) bool {
	return lc.State(dev) != DevQuarantined
}

// Admit decides one submission against the device: healthy and suspect
// devices admit everything, quarantined devices nothing, and a device on
// probation admits a 1-in-ProbeTrickle trickle of real ops as probes.
// Lock-free (one atomic load, plus one atomic add during probation).
func (lc *Lifecycle) Admit(dev int) bool {
	if dev < 0 || dev >= len(lc.states) {
		return true
	}
	switch DeviceState(lc.states[dev].Load()) {
	case DevQuarantined:
		return false
	case DevProbation:
		n := lc.devs[dev].trickle.Add(1)
		return n%int64(lc.cfg.ProbeTrickle) == 0
	default:
		return true
	}
}

// NoteBreakerOpen records one circuit-breaker open transition on an
// instance of device dev — the breaker-density input of the state
// machine. Called by the engine's breaker hook (outside the breaker lock).
func (lc *Lifecycle) NoteBreakerOpen(dev int) {
	if dev < 0 || dev >= len(lc.states) {
		return
	}
	now := time.Now()
	lc.mu.Lock()
	d := lc.devs[dev]
	d.opens = append(d.opens, now)
	d.opens = pruneWindow(d.opens, now, lc.cfg.Window)
	n := len(d.opens)
	var trs []Transition
	switch DeviceState(lc.states[dev].Load()) {
	case DevHealthy:
		if n >= lc.cfg.QuarantineOpens {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonBreakerDensity, now)
		} else if n >= lc.cfg.SuspectOpens {
			trs = lc.transitionLocked(dev, DevSuspect, ReasonBreakerDensity, now)
		}
	case DevSuspect:
		if n >= lc.cfg.QuarantineOpens {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonBreakerDensity, now)
		}
	case DevProbation:
		// A breaker opening during probation is a failed probe.
		trs = lc.transitionLocked(dev, DevQuarantined, ReasonProbeFail, now)
	}
	lc.mu.Unlock()
	lc.fire(trs)
}

// NoteResult records one offload outcome on device dev. Only probation
// consumes it (probe scoring); outside probation the cost is one atomic
// load.
func (lc *Lifecycle) NoteResult(dev int, ok bool) {
	if dev < 0 || dev >= len(lc.states) {
		return
	}
	if DeviceState(lc.states[dev].Load()) != DevProbation {
		return
	}
	now := time.Now()
	lc.mu.Lock()
	var trs []Transition
	if DeviceState(lc.states[dev].Load()) == DevProbation { // recheck under lock
		d := lc.devs[dev]
		if !ok {
			trs = lc.transitionLocked(dev, DevQuarantined, ReasonProbeFail, now)
		} else if d.probeOK++; d.probeOK >= lc.cfg.ProbeSuccesses {
			trs = lc.transitionLocked(dev, DevHealthy, ReasonProbeOK, now)
		}
	}
	lc.mu.Unlock()
	lc.fire(trs)
}

// Quarantine forces device dev into quarantine (operator action, or a
// test fixture). No-op if already quarantined.
func (lc *Lifecycle) Quarantine(dev int, reason LifecycleReason) {
	now := time.Now()
	lc.mu.Lock()
	trs := lc.transitionLocked(dev, DevQuarantined, reason, now)
	lc.mu.Unlock()
	lc.fire(trs)
}

// transitionLocked performs one state change under lc.mu and returns the
// transition(s) to deliver after unlock. Quarantine entry drains the
// device: Reset fails its in-flight ops with ErrDeviceReset (absorbed by
// the engine's retry/fallback path) and leaked slots are reclaimed.
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
		// retry/fallback paths settle it now instead of at their deadlines.
		lc.pool.Device(dev).Reset()
		lc.pool.reclaimDevice(dev)
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

// Start launches the watchdog goroutine (reset-storm and wedge detection,
// suspect decay, the probation timer). Stop with Stop.
func (lc *Lifecycle) Start() {
	lc.mu.Lock()
	if lc.active {
		lc.mu.Unlock()
		return
	}
	lc.active = true
	lc.stop = make(chan struct{})
	lc.done = make(chan struct{})
	stop, done := lc.stop, lc.done
	lc.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(lc.cfg.PollInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				lc.tick(now)
			}
		}
	}()
}

// Stop halts the watchdog. Idempotent.
func (lc *Lifecycle) Stop() {
	lc.mu.Lock()
	if !lc.active {
		lc.mu.Unlock()
		return
	}
	lc.active = false
	stop, done := lc.stop, lc.done
	lc.mu.Unlock()
	close(stop)
	<-done
}

// tick runs one watchdog pass over every device.
func (lc *Lifecycle) tick(now time.Time) {
	var fireList []Transition
	lc.mu.Lock()
	for dev := range lc.devs {
		d := lc.devs[dev]
		state := DeviceState(lc.states[dev].Load())

		// Reset-storm detection: turn Device.Resets() deltas into
		// windowed timestamps. The drain reset performed at quarantine
		// entry was already folded into lastResets.
		cur := sumResets(lc.pool.Device(dev))
		if delta := cur - d.lastResets; delta > 0 {
			for i := int64(0); i < delta; i++ {
				d.resetTimes = append(d.resetTimes, now)
			}
		}
		d.lastResets = cur
		d.resetTimes = pruneWindow(d.resetTimes, now, lc.cfg.Window)

		switch state {
		case DevHealthy, DevSuspect:
			if len(d.resetTimes) >= lc.cfg.ResetStorm {
				fireList = append(fireList, lc.transitionLocked(dev, DevQuarantined, ReasonResetStorm, now)...)
				continue
			}
			// Wedge watchdog: work parked — or swallowed and reclaimed
			// since the last completion — and nothing completing. Empty
			// rings count as progress only if nothing was reclaimed.
			inflight, dequeued, reclaimed := lc.pool.deviceRings(dev)
			if dequeued != d.lastDequeued || (inflight == 0 && reclaimed == d.lastReclaimed) {
				d.lastDequeued, d.lastReclaimed = dequeued, reclaimed
				d.lastProgress = now
			} else if now.Sub(d.lastProgress) >= lc.cfg.WedgeTimeout {
				fireList = append(fireList, lc.transitionLocked(dev, DevQuarantined, ReasonWedge, now)...)
				continue
			}
			// Suspect decay: the open window drained.
			if state == DevSuspect {
				d.opens = pruneWindow(d.opens, now, lc.cfg.Window)
				if len(d.opens) == 0 {
					fireList = append(fireList, lc.transitionLocked(dev, DevHealthy, ReasonDecay, now)...)
				}
			}
		case DevQuarantined:
			if now.Sub(d.quarantinedAt) >= lc.cfg.ProbationAfter {
				fireList = append(fireList, lc.transitionLocked(dev, DevProbation, ReasonProbation, now)...)
			}
		}
	}
	lc.mu.Unlock()
	lc.fire(fireList)
}

// pruneWindow drops timestamps older than window before now, in place.
func pruneWindow(ts []time.Time, now time.Time, window time.Duration) []time.Time {
	cut := 0
	for cut < len(ts) && now.Sub(ts[cut]) > window {
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
