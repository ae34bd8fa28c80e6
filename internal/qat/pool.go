package qat

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// ErrNoDevice is returned (as a sentinel for Pick/RouteConn's -1) when
// every pool device is quarantined: there is nowhere to route offload
// work, and callers must shed or take the software path instead of
// queueing against a corpse.
var ErrNoDevice = errors.New("qat: no routable device (all quarantined)")

// Pool owns N identically-specified Devices and hands out crypto
// instances with per-device health and pressure views. It is the
// placement layer's view of the hardware: internal/offload decides which
// device set an op class should land on, the engine routes individual
// ops, and the Pool answers "how loaded is device k right now" and "which
// device should take this next allocation".
//
// Instances must be allocated through the Pool (AllocInstance) for the
// pressure views to see them; instances allocated directly on a Device
// are invisible to Health/Pressure.
type Pool struct {
	devs []*Device

	// lifecycle, when set, filters quarantined devices out of Pick and
	// RouteConn. Atomic so the hot paths read it without the pool lock.
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

// routable reports whether lifecycle state permits routing to device i.
func (p *Pool) routable(i int) bool {
	lc := p.lifecycle.Load()
	return lc == nil || lc.Routable(i)
}

// reclaimDevice reclaims leaked ring slots on every pool-allocated
// instance of device dev — part of the quarantine drain, after Reset has
// failed the in-flight work.
func (p *Pool) reclaimDevice(dev int) {
	p.mu.Lock()
	insts := p.insts[dev]
	p.mu.Unlock()
	for _, inst := range insts {
		inst.ReclaimLeaked()
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

// Pressure returns device dev's inflight/capacity ratio (0 when the pool
// has allocated no capacity on it).
func (p *Pool) Pressure(dev int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pressureLocked(dev)
}

func (p *Pool) pressureLocked(dev int) float64 {
	var inflight, capa int
	for _, inst := range p.insts[dev] {
		inflight += inst.Inflight()
		capa += inst.Cap()
	}
	if capa == 0 {
		return 0
	}
	return float64(inflight) / float64(capa)
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

// Pick routes one unit of work: it returns the least-pressure routable
// device among preferred, failing over to the least-pressure routable
// device pool-wide when every preferred device is saturated (pressure
// >= 1). An empty preferred set scans the whole pool. Quarantined
// devices are never picked; when every device is quarantined Pick
// returns -1 (see ErrNoDevice) and the caller must shed or fall back to
// software. This is the hot-path primitive the class-shard placement
// builds on, so it must stay cheap (BenchmarkPoolRoute guards it).
func (p *Pool) Pick(preferred []int) int {
	lc := p.lifecycle.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	best, bestP := -1, math.Inf(1)
	for _, i := range preferred {
		if i < 0 || i >= len(p.devs) {
			continue
		}
		if lc != nil && !lc.Routable(i) {
			continue
		}
		if pr := p.pressureLocked(i); pr < bestP {
			best, bestP = i, pr
		}
	}
	if best >= 0 && bestP < 1 {
		return best
	}
	for i := range p.devs {
		if lc != nil && !lc.Routable(i) {
			continue
		}
		if pr := p.pressureLocked(i); pr < bestP {
			best, bestP = i, pr
		}
	}
	if best < 0 && lc == nil {
		best = 0
	}
	return best
}

// RouteConn maps a connection hash to a device index (the conn-hash
// placement mode). When the hashed device is quarantined the hash walks
// forward to the next routable device, so a connection's home moves
// deterministically under quarantine and moves back once the device
// recovers. Returns -1 when every device is quarantined (see ErrNoDevice).
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
