// Package qat is a functional, in-process model of an Intel® QuickAssist
// Technology (QAT) crypto acceleration device, faithful to the usage model
// described in §2.3 of the QTLS paper (Fig. 2):
//
//   - a device hosts one or more independent *endpoints* (the DH8970 card
//     used in the paper contains three);
//   - each endpoint possesses multiple parallel *computation engines* and a
//     number of hardware-assisted *request/response ring pairs*;
//   - ring pairs are grouped into *crypto instances*, logical units assigned
//     to a process/thread;
//   - software writes requests onto a request ring and reads responses back
//     from a response ring; the hardware load-balances requests from all
//     rings across all available engines;
//   - submission is inherently non-blocking: when the request ring is full
//     the submit call fails with a retry status (ErrRingFull);
//   - response availability is indicated by polling (QTLS' choice); an
//     instance whose owner parked in epoll_wait can arm a one-shot wake
//     hook standing in for the completion interrupt (Instance.ArmWake).
//
// Computation engines are goroutines. Each request carries a Work closure
// executed on an engine; real deployments of this package pass closures
// that perform genuine RSA/ECDSA/ECDH/PRF/cipher computations via the Go
// standard library, so TLS handshakes driven through the device are real.
// An optional per-op minimum service time models the latency/throughput
// envelope of the ASIC, letting tests create deterministic contention.
package qat

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qtls/internal/fault"
)

// OpType classifies a crypto request, mirroring the service categories the
// QAT Engine offloads (§2.3): asymmetric crypto, symmetric chained cipher
// and PRF.
type OpType int

const (
	// OpRSA is an RSA private-key operation (sign/decrypt).
	OpRSA OpType = iota
	// OpECDSA is an ECDSA sign operation.
	OpECDSA
	// OpECDH is an ECDH(E) point-multiplication / derive operation.
	OpECDH
	// OpPRF is a TLS 1.2 pseudo random function derivation.
	OpPRF
	// OpCipher is a symmetric chained cipher record operation
	// (e.g. AES-128-CBC-HMAC-SHA1).
	OpCipher

	numOpTypes = 5
)

// String returns the conventional name of the op type.
func (t OpType) String() string {
	switch t {
	case OpRSA:
		return "rsa"
	case OpECDSA:
		return "ecdsa"
	case OpECDH:
		return "ecdh"
	case OpPRF:
		return "prf"
	case OpCipher:
		return "cipher"
	default:
		return fmt.Sprintf("op(%d)", int(t))
	}
}

// Asymmetric reports whether the op type is an asymmetric-key calculation.
// The heuristic polling scheme uses a larger coalescing threshold when
// asymmetric requests are in flight (§3.3).
func (t OpType) Asymmetric() bool {
	return t == OpRSA || t == OpECDSA || t == OpECDH
}

// ErrRingFull is returned by Submit when the instance's request ring has no
// free slot; the caller is expected to retry later (§3.2 "failure of crypto
// submission").
var ErrRingFull = errors.New("qat: request ring full")

// ErrClosed is returned by Submit after the device has been closed.
var ErrClosed = errors.New("qat: device closed")

// ErrDeviceReset is returned by Submit when the target endpoint reset
// underneath the submission, and delivered as the response error of
// requests that were in flight on an endpoint when it reset. It is a
// retryable condition: the engine resubmits (possibly elsewhere) or falls
// back to software.
var ErrDeviceReset = errors.New("qat: endpoint reset")

// ErrNoInstances is the sentinel wrapped by AllocInstance when every
// endpoint is at MaxInstancesPerEndpoint. The returned error carries the
// device index; match with errors.Is.
var ErrNoInstances = errors.New("no free crypto instances")

// Response is the completion record read back from a response ring.
type Response struct {
	// Result is the value produced by the request's Work closure.
	Result any
	// Err is the error produced by the request's Work closure.
	Err error
}

// Request describes one crypto offload job.
type Request struct {
	// Op classifies the request for counters and scheduling.
	Op OpType
	// Work performs the actual computation on an engine goroutine. It must
	// be non-nil and must not block indefinitely.
	Work func() (any, error)
	// Callback is invoked with the response during Poll, on the polling
	// goroutine (matching QAT userspace polled operation). Optional.
	Callback func(Response)
}

// DeviceSpec configures a simulated QAT device.
type DeviceSpec struct {
	// Endpoints is the number of independent QAT endpoints (the paper's
	// DH8970 card has 3). Default 1.
	Endpoints int
	// EnginesPerEndpoint is the number of parallel computation engines in
	// each endpoint. Default 8.
	EnginesPerEndpoint int
	// MaxInstancesPerEndpoint bounds AllocInstance (a modern endpoint
	// supports up to 48 crypto instances, §2.3). Default 48.
	MaxInstancesPerEndpoint int
	// RingCapacity is the capacity of each instance's request ring.
	// Default 64.
	RingCapacity int
	// ServiceTime, when non-nil, gives a minimum engine occupancy per op
	// type; engines sleep out any remainder after Work returns. This models
	// ASIC latency for tests and demos. A nil map means "as fast as the
	// host computes".
	ServiceTime map[OpType]time.Duration
	// Injector, when non-nil, is consulted at submit and service time to
	// inject faults (stalls, drops, corruption, latency, ring-full
	// storms, endpoint resets). nil — the default — is free: no fault
	// paths are taken.
	Injector *fault.Injector
}

func (s DeviceSpec) withDefaults() DeviceSpec {
	if s.Endpoints <= 0 {
		s.Endpoints = 1
	}
	if s.EnginesPerEndpoint <= 0 {
		s.EnginesPerEndpoint = 8
	}
	if s.MaxInstancesPerEndpoint <= 0 {
		s.MaxInstancesPerEndpoint = 48
	}
	if s.RingCapacity <= 0 {
		s.RingCapacity = 64
	}
	return s
}

// Counters is a snapshot of the firmware counters of one endpoint,
// mirroring /sys/kernel/debug/qat*/fw_counters from the artifact appendix.
type Counters struct {
	Requests  [numOpTypes]uint64
	Responses [numOpTypes]uint64
}

// TotalRequests sums requests across op types.
func (c Counters) TotalRequests() (n uint64) {
	for _, v := range c.Requests {
		n += v
	}
	return n
}

// TotalResponses sums responses across op types.
func (c Counters) TotalResponses() (n uint64) {
	for _, v := range c.Responses {
		n += v
	}
	return n
}

// Device is a simulated QAT acceleration device.
type Device struct {
	id        int // position in a Pool; 0 for standalone devices
	spec      DeviceSpec
	endpoints []*endpoint

	mu        sync.Mutex
	closed    bool
	nextAlloc int // round-robin endpoint for instance allocation
}

type endpoint struct {
	dev      *Device
	id       int
	dispatch chan *pending
	wg       sync.WaitGroup

	mu        sync.Mutex
	counters  Counters
	instances int
	epoch     int // bumped by reset; stale in-flight requests fail
	resets    int64
}

// pending is a request in flight on an endpoint. Each instance recycles
// its own: Submit takes one from the instance's free list and deliver puts
// it back once the response is on the ring, so a steady state allocates
// none. A stalled request's pending waits on the instance's stalled list
// until its slot is reclaimed or a quarantine drain fails it.
type pending struct {
	req   Request
	inst  *Instance
	epoch int
	next  *pending // free-list link
}

// Instance is a QAT crypto instance: a logical group of ring pairs assigned
// to one process/thread. Instances are not safe for concurrent use by
// multiple goroutines except where documented: Submit and Poll may be
// called concurrently with engine completions, but the intended usage is
// one owning worker per instance (as in the paper's deployment: one Nginx
// worker per instance).
type Instance struct {
	ep      *endpoint
	id      int
	ringCap int

	mu        sync.Mutex
	inflight  int
	stalled   []*pending  // requests a stalled engine swallowed; each holds its ring slot
	responses []completed // response ring; bounded by inflight <= ringCap
	scratch   []completed // Poll's batch buffer, parked here between polls
	free      *pending    // recycled pendings; at most ringCap of them
	stats     InstanceStats

	// The wake seam (see ArmWake): wake is the owner's hook, armed is set
	// while the owner is parked and consumed by the first completion.
	wake  func()
	armed atomic.Bool

	// health is the instance's circuit, driven by the Lifecycle that
	// watches it (see lifecycle.go).
	health instHealth
}

// InstanceStats is a snapshot of one instance's ring-level counters: how
// submission and retrieval behaved, as opposed to the endpoint firmware
// counters which only count operations.
type InstanceStats struct {
	// Submits counts requests accepted onto the request ring (whether
	// they arrived one at a time or inside a batch).
	Submits int64
	// RingFull counts submit calls rejected — fully or, for SubmitBatch,
	// partially — with ErrRingFull. A partially accepted batch counts
	// once, not once per unaccepted request.
	RingFull int64
	// Doorbells counts ring-lock acquisitions on the submit path: one per
	// Submit and one per SubmitBatch that reaches the ring (a submit-time
	// endpoint reset fails before the ring lock). The batched submission
	// path exists to make this number grow slower than Submits.
	Doorbells int64
	// SubmitBatches counts SubmitBatch calls that accepted at least one
	// request.
	SubmitBatches int64
	// BatchSubmitted counts requests accepted via SubmitBatch (a subset
	// of Submits; BatchSubmitted/SubmitBatches is the mean batch size).
	BatchSubmitted int64
	// MaxSubmitBatch is the largest single SubmitBatch acceptance.
	MaxSubmitBatch int64
	// Polls counts Poll calls.
	Polls int64
	// EmptyPolls counts Poll calls that retrieved nothing — wasted CPU
	// the heuristic polling scheme exists to avoid (§3.3).
	EmptyPolls int64
	// Dequeued counts responses retrieved across all polls.
	Dequeued int64
	// MaxBatch is the largest single-poll batch observed.
	MaxBatch int64
	// Reclaimed counts ring slots recovered by ReclaimLeaked — each one a
	// stalled request the submitter gave up on. A growing value is the
	// ring-level shadow of the engine's timeout/fallback incidents (the
	// flight recorder journals the submitter-side cause).
	Reclaimed int64
}

type completed struct {
	cb   func(Response)
	resp Response
}

// NewDevice creates a device and starts its engine goroutines.
func NewDevice(spec DeviceSpec) *Device {
	spec = spec.withDefaults()
	d := &Device{spec: spec}
	for i := 0; i < spec.Endpoints; i++ {
		ep := &endpoint{
			dev: d,
			id:  i,
			// Dispatch capacity covers every instance's full ring so that
			// a successful Submit can never block on the channel send.
			dispatch: make(chan *pending, spec.MaxInstancesPerEndpoint*spec.RingCapacity),
		}
		for e := 0; e < spec.EnginesPerEndpoint; e++ {
			ep.wg.Add(1)
			go ep.engineLoop()
		}
		d.endpoints = append(d.endpoints, ep)
	}
	return d
}

// Spec returns the (defaulted) device specification.
func (d *Device) Spec() DeviceSpec { return d.spec }

// ID returns the device's index within its Pool (0 for a standalone
// device). The id appears in AllocInstance errors and per-device stats so
// that multi-device deployments can attribute failures to hardware.
func (d *Device) ID() int { return d.id }

// AllocInstance allocates a crypto instance, distributing instances evenly
// across endpoints (the paper's setup: "the allocated QAT instances were
// distributed evenly from the three QAT endpoints").
func (d *Device) AllocInstance() (*Instance, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	for try := 0; try < len(d.endpoints); try++ {
		ep := d.endpoints[d.nextAlloc%len(d.endpoints)]
		d.nextAlloc++
		ep.mu.Lock()
		if ep.instances < d.spec.MaxInstancesPerEndpoint {
			ep.instances++
			id := ep.instances
			ep.mu.Unlock()
			return &Instance{ep: ep, id: id, ringCap: d.spec.RingCapacity}, nil
		}
		ep.mu.Unlock()
	}
	return nil, fmt.Errorf("qat: device %d: %w (%d endpoints at max %d instances)",
		d.id, ErrNoInstances, len(d.endpoints), d.spec.MaxInstancesPerEndpoint)
}

// Close shuts the device down. In-flight work is completed; subsequent
// Submit calls fail with ErrClosed. Close blocks until all engines exit.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	for _, ep := range d.endpoints {
		close(ep.dispatch)
		ep.wg.Wait()
	}
}

// Counters returns per-endpoint firmware counters.
func (d *Device) Counters() []Counters {
	out := make([]Counters, len(d.endpoints))
	for i, ep := range d.endpoints {
		ep.mu.Lock()
		out[i] = ep.counters
		ep.mu.Unlock()
	}
	return out
}

func (ep *endpoint) engineLoop() {
	defer ep.wg.Done()
	st := ep.dev.spec.ServiceTime
	inj := ep.dev.spec.Injector
	for p := range ep.dispatch {
		inst := p.inst
		// A request that was on the rings when its endpoint reset fails
		// with a retryable error instead of executing.
		ep.mu.Lock()
		stale := p.epoch != ep.epoch
		ep.mu.Unlock()
		if stale {
			ep.deliver(p, Response{Err: ErrDeviceReset})
			continue
		}
		var out fault.Outcome
		if inj != nil {
			out = inj.AtService(ep.id, int(p.req.Op))
		}
		if out.Stall {
			// Stalled engine: the response never arrives and the ring slot
			// stays occupied until the submitter reclaims it.
			inst.mu.Lock()
			inst.stalled = append(inst.stalled, p)
			inst.mu.Unlock()
			continue
		}
		if out.Drop {
			// The request was consumed (slot freed) but the response is
			// lost on the way back.
			inst.mu.Lock()
			inst.inflight--
			inst.putPending(p)
			inst.mu.Unlock()
			continue
		}
		start := time.Now()
		var resp Response
		resp.Result, resp.Err = p.req.Work()
		if minT, ok := st[p.req.Op]; ok {
			if rem := minT - time.Since(start); rem > 0 {
				time.Sleep(rem)
			}
		}
		if out.ExtraLatency > 0 {
			time.Sleep(out.ExtraLatency)
		}
		if out.Corrupt {
			resp.Result = corruptResult(resp.Result)
		}
		ep.deliver(p, resp)
	}
}

// deliver places p's response on the instance's response ring, recycles
// p, bumps the firmware counter and, if the instance's owner is parked,
// wakes it.
func (ep *endpoint) deliver(p *pending, resp Response) {
	inst, op := p.inst, p.req.Op
	inst.mu.Lock()
	inst.responses = append(inst.responses, completed{cb: p.req.Callback, resp: resp})
	inst.putPending(p)
	inst.mu.Unlock()
	ep.mu.Lock()
	ep.counters.Responses[op]++
	ep.mu.Unlock()
	// One flag, one call: an awake owner finds the response by polling and
	// costs the device one failed CAS; only the completion that finds the
	// flag set pays for the wake.
	if inst.armed.CompareAndSwap(true, false) {
		inst.wake()
	}
}

// getPending takes a pending from the free list, or makes one. Called
// with inst.mu held.
func (inst *Instance) getPending() *pending {
	p := inst.free
	if p == nil {
		return &pending{inst: inst}
	}
	inst.free, p.next = p.next, nil
	return p
}

// putPending clears p's request, so the free list keeps no closure alive,
// and pushes p. Called with inst.mu held.
func (inst *Instance) putPending(p *pending) {
	p.req = Request{}
	p.next = inst.free
	inst.free = p
}

// SetWakeHook installs the function a completion calls to wake the
// instance's parked owner (the worker writes its wake pipe). It runs on a
// device goroutine, so it must not block. Install it before the first
// Submit; it is not synchronized against in-flight requests.
func (inst *Instance) SetWakeHook(fn func()) { inst.wake = fn }

// ArmWake declares that the owner is about to block outside Poll: the
// next response placed on the ring calls the wake hook, once. The owner
// must arm first and check Available afterwards — a response that landed
// before the check is seen by it, one that lands after finds the flag set
// — so no completion is lost between the last ring check and the block.
// Without a hook ArmWake does nothing.
func (inst *Instance) ArmWake() {
	if inst.wake != nil {
		inst.armed.Store(true)
	}
}

// DisarmWake ends the armed window and reports whether a completion
// consumed it (that is, whether the hook fired since ArmWake).
func (inst *Instance) DisarmWake() (fired bool) {
	if inst.wake == nil {
		return false
	}
	return !inst.armed.Swap(false)
}

// corruptResult returns a bit-flipped copy of byte-slice results (wrong
// bytes back, silently — detection is the submitter's job, e.g. RSA
// sign-then-verify). Non-byte results pass through unchanged.
func corruptResult(v any) any {
	b, ok := v.([]byte)
	if !ok || len(b) == 0 {
		return v
	}
	c := make([]byte, len(b))
	copy(c, b)
	c[0] ^= 0xa5
	c[len(c)-1] ^= 0x5a
	return c
}

// reset models a whole-endpoint reset: every request currently on the
// endpoint's rings fails with ErrDeviceReset instead of executing.
func (ep *endpoint) reset() {
	ep.mu.Lock()
	ep.epoch++
	ep.resets++
	ep.mu.Unlock()
}

// Reset models a whole-device reset: every endpoint resets (in-flight
// requests fail with ErrDeviceReset instead of executing) and the
// instance-allocation counters are cleared, so a process that exhausted
// AllocInstance can re-allocate after the reset — the ring
// reinitialization a real adf_ctl restart performs. Instances handed out
// before the reset remain usable for Submit/Poll; their outstanding
// requests complete with ErrDeviceReset.
func (d *Device) Reset() {
	d.mu.Lock()
	d.nextAlloc = 0
	d.mu.Unlock()
	for _, ep := range d.endpoints {
		ep.reset()
		ep.mu.Lock()
		ep.instances = 0
		ep.mu.Unlock()
	}
}

// Resets returns how many times each endpoint has reset.
func (d *Device) Resets() []int64 {
	out := make([]int64, len(d.endpoints))
	for i, ep := range d.endpoints {
		ep.mu.Lock()
		out[i] = ep.resets
		ep.mu.Unlock()
	}
	return out
}

// Submit places a request on the instance's request ring. It never blocks:
// when the ring is full it returns ErrRingFull and the caller must retry
// later. On success the request will eventually be executed by one of the
// endpoint's engines and its response becomes retrievable via Poll.
func (inst *Instance) Submit(req Request) error {
	if req.Work == nil {
		panic("qat: Submit with nil Work")
	}
	if req.Op < 0 || req.Op >= numOpTypes {
		panic("qat: Submit with invalid OpType")
	}
	inst.ep.dev.mu.Lock()
	closed := inst.ep.dev.closed
	inst.ep.dev.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if inj := inst.ep.dev.spec.Injector; inj != nil {
		out := inj.AtSubmit(inst.ep.id, int(req.Op))
		if out.Reset {
			inst.ep.reset()
			return ErrDeviceReset
		}
		if out.RingFull {
			inst.mu.Lock()
			inst.stats.Doorbells++
			inst.stats.RingFull++
			inst.mu.Unlock()
			return ErrRingFull
		}
	}
	inst.mu.Lock()
	inst.stats.Doorbells++
	if inst.inflight >= inst.ringCap {
		inst.stats.RingFull++
		inst.mu.Unlock()
		return ErrRingFull
	}
	inst.inflight++
	inst.stats.Submits++
	p := inst.getPending()
	inst.mu.Unlock()

	inst.ep.mu.Lock()
	inst.ep.counters.Requests[req.Op]++
	p.req, p.epoch = req, inst.ep.epoch
	inst.ep.mu.Unlock()

	// Guaranteed space: dispatch capacity >= sum of ring capacities.
	inst.ep.dispatch <- p
	return nil
}

// SubmitBatch places up to len(reqs) requests on the instance's request
// ring, taking the ring lock and ringing the doorbell once for the whole
// batch. It accepts a prefix of reqs and returns how many were accepted:
// on ring-full the remainder is rejected with ErrRingFull and the caller
// retries (or falls back) only the unaccepted tail. Like Submit it never
// blocks.
//
// Partial-acceptance semantics: requests reqs[:accepted] are on the ring
// exactly as if submitted individually; reqs[accepted:] were never
// submitted and carry no ring state. When the returned error is
// ErrDeviceReset the endpoint reset mid-batch; the accepted prefix was on
// the rings at reset time and will complete with ErrDeviceReset responses
// (retryable), matching the fate of any other in-flight request.
func (inst *Instance) SubmitBatch(reqs []Request) (int, error) {
	for i := range reqs {
		if reqs[i].Work == nil {
			panic("qat: SubmitBatch with nil Work")
		}
		if reqs[i].Op < 0 || reqs[i].Op >= numOpTypes {
			panic("qat: SubmitBatch with invalid OpType")
		}
	}
	if len(reqs) == 0 {
		return 0, nil
	}
	inst.ep.dev.mu.Lock()
	closed := inst.ep.dev.closed
	inst.ep.dev.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	inj := inst.ep.dev.spec.Injector

	// Read the epoch before reserving ring slots so that a reset injected
	// mid-batch leaves the accepted prefix stale: the engines fail those
	// requests with ErrDeviceReset instead of executing them, exactly as
	// they would any request already on the rings when the endpoint reset.
	inst.ep.mu.Lock()
	epoch := inst.ep.epoch
	inst.ep.mu.Unlock()

	var accepted int
	var batchErr error
	var batch *pending // one per accepted request, taken under inst.mu
	inst.mu.Lock()
	inst.stats.Doorbells++
	for i := range reqs {
		if inj != nil {
			out := inj.AtSubmit(inst.ep.id, int(reqs[i].Op))
			if out.Reset {
				inst.ep.reset()
				batchErr = ErrDeviceReset
				break
			}
			if out.RingFull {
				inst.stats.RingFull++
				batchErr = ErrRingFull
				break
			}
		}
		if inst.inflight >= inst.ringCap {
			inst.stats.RingFull++
			batchErr = ErrRingFull
			break
		}
		inst.inflight++
		inst.stats.Submits++
		accepted++
		p := inst.getPending()
		p.next, batch = batch, p
	}
	if accepted > 0 {
		inst.stats.SubmitBatches++
		inst.stats.BatchSubmitted += int64(accepted)
		if int64(accepted) > inst.stats.MaxSubmitBatch {
			inst.stats.MaxSubmitBatch = int64(accepted)
		}
	}
	inst.mu.Unlock()
	if accepted == 0 {
		return 0, batchErr
	}

	inst.ep.mu.Lock()
	for i := range reqs[:accepted] {
		inst.ep.counters.Requests[reqs[i].Op]++
	}
	inst.ep.mu.Unlock()

	// Guaranteed space: dispatch capacity >= sum of ring capacities.
	for i := range reqs[:accepted] {
		p := batch
		batch, p.next = p.next, nil
		p.req, p.epoch = reqs[i], epoch
		inst.ep.dispatch <- p
	}
	return accepted, batchErr
}

// Poll retrieves up to max responses (0 or negative means all available),
// invoking each request's callback on the calling goroutine. It returns
// the number of responses retrieved. This is the userspace polled
// operation QTLS builds its heuristic polling scheme on (§3.3).
func (inst *Instance) Poll(max int) int {
	inst.mu.Lock()
	n := len(inst.responses)
	if max > 0 && n > max {
		n = max
	}
	// The batch is copied out so callbacks run without the ring lock. Its
	// buffer is taken from the instance for the duration of the poll and
	// handed back afterwards: a callback that re-enters Poll finds nil and
	// grows its own.
	var batch []completed
	if n > 0 {
		batch = append(inst.scratch[:0], inst.responses[:n]...)
		inst.scratch = nil
	}
	rest := copy(inst.responses, inst.responses[n:])
	for i := rest; i < len(inst.responses); i++ {
		inst.responses[i] = completed{}
	}
	inst.responses = inst.responses[:rest]
	inst.inflight -= n
	inst.stats.Polls++
	if n == 0 {
		inst.stats.EmptyPolls++
	}
	inst.stats.Dequeued += int64(n)
	if int64(n) > inst.stats.MaxBatch {
		inst.stats.MaxBatch = int64(n)
	}
	inst.mu.Unlock()

	for _, c := range batch {
		if c.cb != nil {
			c.cb(c.resp)
		}
	}
	if n > 0 {
		clear(batch) // drop the callbacks' and results' references
		inst.mu.Lock()
		inst.scratch = batch[:0]
		inst.mu.Unlock()
	}
	return n
}

// Inflight returns the number of submitted-but-not-yet-polled requests on
// this instance (includes responses waiting on the response ring).
func (inst *Instance) Inflight() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.inflight
}

// Available returns the number of responses ready to be polled.
func (inst *Instance) Available() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return len(inst.responses)
}

// Leaked returns the number of ring slots currently held by stalled
// requests whose responses will never arrive.
func (inst *Instance) Leaked() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return len(inst.stalled)
}

// ReclaimLeaked frees the ring slots of stalled requests, returning how
// many were reclaimed. The submitter calls this after deciding (via a
// deadline) that outstanding requests are never coming back; it stands in
// for the ring reinitialization a device reset performs.
func (inst *Instance) ReclaimLeaked() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	n := len(inst.stalled)
	for _, p := range inst.stalled {
		inst.putPending(p)
	}
	clear(inst.stalled)
	inst.stalled = inst.stalled[:0]
	inst.inflight -= n
	inst.stats.Reclaimed += int64(n)
	return n
}

// failStalled completes every request a stalled engine swallowed with
// ErrDeviceReset, as the ring reinitialization of a device reset does: the
// responses land on the response ring and free their slots when polled. A
// submitter with no op deadline would otherwise stay parked on them for
// good.
func (inst *Instance) failStalled() {
	inst.mu.Lock()
	stalled := inst.stalled
	inst.stalled = nil
	inst.mu.Unlock()
	for _, p := range stalled {
		inst.ep.deliver(p, Response{Err: ErrDeviceReset})
	}
}

// Stats returns a snapshot of the instance's ring-level counters.
func (inst *Instance) Stats() InstanceStats {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.stats
}

// Cap returns the capacity of the instance's request ring: the maximum
// number of requests that may be in flight at once. Submitters use
// Cap()-Inflight() as the free-slot estimate when sizing batches.
func (inst *Instance) Cap() int { return inst.ringCap }

// Endpoint returns the id of the endpoint this instance belongs to.
func (inst *Instance) Endpoint() int { return inst.ep.id }
