package qat

import (
	"sync"
	"sync/atomic"
)

// Pool owns N identically-specified Devices and hands out crypto
// instances with per-device health and pressure views. It is the
// placement layer's view of the hardware: RouteConn names a connection's
// home device, the engine routes individual ops, and the Pool answers
// "how loaded is device k right now".
//
// Instances must be allocated through the Pool (AllocInstance) for the
// pressure views to see them; instances allocated directly on a Device
// are invisible to Health/TotalPressure.
type Pool struct {
	devs []*Device

	// lifecycle, when set, filters quarantined devices out of RouteConn.
	// Atomic so the hot paths read it without the pool lock.
	lifecycle atomic.Pointer[Lifecycle]

	mu    sync.Mutex
	insts [][]*Instance // pool-allocated instances, indexed by device
}

// NewPool creates n devices sharing one spec and starts their engines.
// n <= 0 is treated as 1. Device IDs are their pool indices.
func NewPool(n int, spec DeviceSpec) *Pool {
	if n <= 0 {
		n = 1
	}
	p := &Pool{devs: make([]*Device, n), insts: make([][]*Instance, n)}
	for i := range p.devs {
		d := NewDevice(spec)
		d.id = i
		p.devs[i] = d
	}
	return p
}

// PoolOf wraps already-constructed devices into a pool without starting
// new ones — the adapter that lets legacy single-device callers (and
// tests that need per-device specs, e.g. one faulted and one clean) use
// the placement layer. Device IDs are rewritten to their pool indices.
func PoolOf(devs ...*Device) *Pool {
	p := &Pool{devs: devs, insts: make([][]*Instance, len(devs))}
	for i, d := range devs {
		d.id = i
	}
	return p
}

// Size returns the number of devices in the pool.
func (p *Pool) Size() int { return len(p.devs) }

// Device returns device i.
func (p *Pool) Device(i int) *Device { return p.devs[i] }

// Devices returns the pool's devices in index order. The slice is shared;
// callers must not mutate it.
func (p *Pool) Devices() []*Device { return p.devs }

// AllocInstance allocates a crypto instance on device dev and registers
// it with the pool's pressure accounting. Errors carry the device index
// (see Device.AllocInstance).
func (p *Pool) AllocInstance(dev int) (*Instance, error) {
	inst, err := p.devs[dev].AllocInstance()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.insts[dev] = append(p.insts[dev], inst)
	p.mu.Unlock()
	return inst, nil
}

// setLifecycle registers the lifecycle manager (called by NewLifecycle).
func (p *Pool) setLifecycle(lc *Lifecycle) { p.lifecycle.Store(lc) }

// Lifecycle returns the pool's lifecycle manager, or nil when none is
// attached (all devices then count as routable).
func (p *Pool) Lifecycle() *Lifecycle { return p.lifecycle.Load() }

// failStalled fails the requests stalled engines swallowed on every
// pool-allocated instance of device dev — part of the quarantine drain,
// after Reset has failed the work still queued on the rings.
func (p *Pool) failStalled(dev int) {
	p.mu.Lock()
	insts := p.insts[dev]
	p.mu.Unlock()
	for _, inst := range insts {
		inst.failStalled()
	}
}

// deviceRings sums the wedge watchdog's inputs across device dev's
// pool-allocated instances: requests on the rings now, responses ever
// retrieved (progress), and stalled slots ever reclaimed by submitters
// that gave up (work the device swallowed).
func (p *Pool) deviceRings(dev int) (inflight int, dequeued, reclaimed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, inst := range p.insts[dev] {
		inflight += inst.Inflight()
		st := inst.Stats()
		dequeued += st.Dequeued
		reclaimed += st.Reclaimed
	}
	return inflight, dequeued, reclaimed
}

// Close shuts every device down.
func (p *Pool) Close() {
	for _, d := range p.devs {
		d.Close()
	}
}

// DeviceHealth is a point-in-time pressure view of one pool device,
// aggregated over the instances allocated through the pool.
type DeviceHealth struct {
	// Device is the device index.
	Device int
	// Instances is how many instances the pool has allocated on it.
	Instances int
	// Inflight is the total submitted-but-unpolled requests across them.
	Inflight int
	// Leaked is the total ring slots held by stalled requests.
	Leaked int
	// RingCapacity is the summed ring capacity of those instances.
	RingCapacity int
	// Resets is the total endpoint reset count on the device.
	Resets int64
	// State is the device's lifecycle state (DevHealthy when no lifecycle
	// manager is attached).
	State DeviceState
}

// Pressure is Inflight/RingCapacity, or 0 for a device with no
// pool-allocated capacity.
func (h DeviceHealth) Pressure() float64 {
	if h.RingCapacity == 0 {
		return 0
	}
	return float64(h.Inflight) / float64(h.RingCapacity)
}

// Health returns a per-device pressure snapshot, indexed by device.
func (p *Pool) Health() []DeviceHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DeviceHealth, len(p.devs))
	for i, d := range p.devs {
		h := DeviceHealth{Device: i, Instances: len(p.insts[i])}
		for _, inst := range p.insts[i] {
			h.Inflight += inst.Inflight()
			h.Leaked += inst.Leaked()
			h.RingCapacity += inst.Cap()
		}
		for _, r := range d.Resets() {
			h.Resets += r
		}
		if lc := p.lifecycle.Load(); lc != nil {
			h.State = lc.State(i)
		}
		out[i] = h
	}
	return out
}

// TotalPressure returns pool-wide inflight and ring capacity across every
// pool-allocated instance — the denominator admission control should use
// when work is sharded across devices instead of pinned to one.
func (p *Pool) TotalPressure() (inflight, capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.devs {
		for _, inst := range p.insts[i] {
			inflight += inst.Inflight()
			capacity += inst.Cap()
		}
	}
	return inflight, capacity
}

// RouteConn maps a connection hash to a device index (the conn-hash
// placement mode). When the hashed device is quarantined the hash walks
// forward to the next routable device, so a connection's home moves
// deterministically under quarantine and moves back once the device
// recovers. Returns -1 when every device is quarantined: there is nowhere
// to route offload work, and callers must shed or take the software path.
func (p *Pool) RouteConn(hash uint64) int {
	n := uint64(len(p.devs))
	home := int(hash % n)
	lc := p.lifecycle.Load()
	if lc == nil {
		return home
	}
	for i := 0; i < len(p.devs); i++ {
		dev := (home + i) % len(p.devs)
		if lc.Routable(dev) {
			return dev
		}
	}
	return -1
}
