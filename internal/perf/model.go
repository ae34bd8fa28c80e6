package perf

import (
	"fmt"
	"time"

	"qtls/internal/metrics"
	"qtls/internal/offload"
	"qtls/internal/sim"
)

// AsyncImpl selects the crypto pause implementation (§4.1 ablation).
// The live stack has a matching knob (minitls.AsyncMode) but the choice
// does not change offload policy, so it stays outside internal/offload.
type AsyncImpl int

const (
	// ImplFiber is the ASYNC_JOB fiber mechanism in OpenSSL releases.
	ImplFiber AsyncImpl = iota
	// ImplStack is the original intrusive state-flag implementation —
	// slightly faster (no fiber context swaps) but API-incompatible.
	ImplStack
)

// Config selects one offload configuration for a model run: the shared
// offload.Policy — the same value the live stack's server.RunConfig
// embeds, so the two stacks cannot name a configuration differently —
// plus the model-only scenario knobs.
type Config struct {
	// Policy is the offload configuration proper; its fields are promoted
	// (cfg.UseQAT, cfg.Async, cfg.Poll.Interval, ...). Unset poll
	// parameters resolve to the offload defaults.
	offload.Policy
	// Impl is the crypto pause implementation (fiber by default; the
	// stack-async §4.1 ablation sets ImplStack).
	Impl AsyncImpl
	// Workers is the number of event-loop workers (HT cores).
	Workers int
	// Fault, when non-nil, injects a device-degradation scenario — the
	// discrete-event counterpart of the internal/fault subsystem.
	Fault *FaultScenario
	// Overload, when non-nil, arms admission control: new connections are
	// shed (TCP reset at accept) while the target worker's in-flight
	// offloads or connection count exceed the policy's pressure points —
	// the discrete-event counterpart of the live stack's accept-time
	// shedding. Zero fields take the offload defaults.
	Overload *offload.OverloadPolicy
	// Devices is the number of modeled QAT cards (default 1 — the
	// paper's single-card testbed). With more than one, Policy.Placement
	// selects how workers spread across them — the discrete-event
	// counterpart of the live stack's qat.Pool sharding.
	Devices int
	// DegradeAt, when positive with Devices > 1 and an active Placement,
	// stalls every engine pool of DegradeDevice that far into the run
	// (virtual time from model start): the mid-run device-degradation
	// scenario. Workers detect the stall at submission time and re-route
	// to a healthy device, so connections complete with bounded latency
	// instead of hanging.
	DegradeAt time.Duration
	// DegradeDevice is the device index DegradeAt stalls.
	DegradeDevice int
	// RecoverAt, when positive with DegradeAt armed, un-stalls
	// DegradeDevice's engine pools that far into the run (virtual time
	// from model start, so RecoverAt > DegradeAt): the kill → degrade →
	// recover timeline of the lifecycle's probation re-admission. Workers
	// route per submission, so traffic returns to the recovered device on
	// its own — the DES counterpart of re-homing back.
	RecoverAt time.Duration
}

// FaultScenario degrades the modeled device and arms the engine-side
// defenses, mirroring internal/fault + the hardened internal/engine: a
// stalled engine pool never answers, per-op deadlines convert the hang
// into a software fallback, and a circuit breaker stops submitting to an
// instance once enough deadlines have expired.
type FaultScenario struct {
	// StalledEndpoints marks the asymmetric engine pools of the first N
	// endpoints as stalled: submissions to them are accepted but never
	// complete (a hung computation engine).
	StalledEndpoints int
	// OpTimeout is the per-operation deadline after which the worker
	// abandons a stalled offload and computes the result in software
	// (default 5 ms when a fault scenario is set).
	OpTimeout time.Duration
	// TripThreshold opens a worker's circuit breaker after this many
	// deadline expirations: subsequent asymmetric ops on the sick
	// instance skip the doomed submission and go straight to software.
	// 0 disables the breaker (every op pays the full deadline).
	TripThreshold int
}

// The paper's five configurations (§5.1) at a given worker count: the
// shared policies, unadorned.
func SW(workers int) Config { return Config{Policy: offload.SW(), Workers: workers} }

func QATS(workers int) Config { return Config{Policy: offload.QATS(), Workers: workers} }

func QATA(workers int) Config { return Config{Policy: offload.QATA(), Workers: workers} }

func QATAH(workers int) Config { return Config{Policy: offload.QATAH(), Workers: workers} }

func QTLS(workers int) Config { return Config{Policy: offload.QTLS(), Workers: workers} }

// Configurations returns the paper's five configurations in order.
func Configurations(workers int) []Config {
	return []Config{SW(workers), QATS(workers), QATA(workers), QATAH(workers), QTLS(workers)}
}

// opClass classifies modeled crypto operations.
type opClass int

const (
	opRSA opClass = iota
	opECDSA
	opECDH
	opPRF
	opHKDF
	opCipher
)

func (o opClass) asym() bool { return o == opRSA || o == opECDSA || o == opECDH }

// offloadable reports whether the QAT Engine can offload the class (HKDF
// cannot, §5.2).
func (o opClass) offloadable() bool { return o != opHKDF }

// stepKind enumerates connection script steps.
type stepKind int

const (
	stepCPU     stepKind = iota // worker CPU burst
	stepCrypto                  // crypto operation (software or offloaded)
	stepNet                     // wait for the client (worker free)
	stepHSDone                  // marker: handshake completed (counts CPS)
	stepReqDone                 // marker: one HTTP request served
)

// step is one unit of a connection's server-side script.
type step struct {
	kind  stepKind
	dur   time.Duration // stepCPU burst or stepNet delay
	op    opClass       // stepCrypto
	sw    time.Duration // software cost of the crypto op
	hw    time.Duration // accelerator service time of the crypto op
	bytes int           // stepNet: response bytes serialized onto the link
}

// conn is one modeled TLS connection.
type conn struct {
	w       *worker
	script  []step
	idx     int
	start   sim.Time // client-side start (for latency)
	resumed bool
	onDone  func(at sim.Time)
	// fallback is a pending software-fallback CPU burst (set when an
	// offload deadline expired; paid when the worker next runs the conn).
	fallback time.Duration
}

// Stats aggregates a measurement window.
type Stats struct {
	Handshakes    int64
	Resumed       int64
	Requests      int64
	BytesServed   int64
	Latency       *metrics.Histogram
	Polls         int64
	EmptyPolls    int64
	FailoverPolls int64
	Notifications int64
	RingFulls     int64
	CPUBusy       time.Duration // summed across workers

	// Degradation counters (zero unless Config.Fault is set).
	Timeouts    int64 // offload deadlines expired
	SWFallbacks int64 // ops recomputed in software after a fault
	Trips       int64 // workers whose circuit breaker is open at window end

	// Sheds counts connections rejected at accept time by the admission
	// policy (zero unless Config.Overload is set).
	Sheds int64

	// Reroutes counts offloads diverted away from their preferred device
	// because its engine pool was stalled (zero unless a multi-device
	// placement absorbed a degradation).
	Reroutes int64
}

func newStats() *Stats {
	return &Stats{Latency: new(metrics.Histogram)}
}

// Model is one configured simulation instance.
type Model struct {
	sim     *sim.Simulation
	p       Params
	cfg     Config
	shed    offload.OverloadPolicy // resolved admission policy (shedOn)
	shedOn  bool
	workers []*worker
	dev     *device   // devs[0]: the legacy single-device view
	devs    []*device // all modeled cards, indexed by device
	// placementOn marks a multi-device placement: workers home on a
	// hash-picked device and re-route around stalled devices. Off (the
	// zero Placement or one device), every path is byte-identical to the
	// single-device model.
	placementOn bool
	link        *link

	measuring bool
	stats     *Stats
	nextConn  int
}

// NewModel builds a model for one configuration.
func NewModel(p Params, cfg Config, seed int64) *Model {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	cfg.Policy = cfg.Policy.WithDefaults()
	m := &Model{
		sim:   sim.New(seed),
		p:     p,
		cfg:   cfg,
		stats: newStats(),
		link:  &link{gbps: p.LinkGbps},
	}
	if cfg.Overload != nil {
		m.shed = cfg.Overload.WithDefaults()
		m.shedOn = true
	}
	if cfg.UseQAT {
		ndev := cfg.Devices
		if ndev <= 0 {
			ndev = 1
		}
		for d := 0; d < ndev; d++ {
			m.devs = append(m.devs, newDevice(m.sim, p.Endpoints, p.AsymEnginesPerEndpoint, p.SymEnginesPerEndpoint))
		}
		m.dev = m.devs[0]
		m.placementOn = ndev > 1 && cfg.Placement == offload.PlacementConnHash
		if sc := cfg.Fault; sc != nil {
			if sc.OpTimeout <= 0 {
				sc.OpTimeout = 5 * time.Millisecond
			}
			for i := 0; i < sc.StalledEndpoints && i < len(m.dev.endpoints); i++ {
				m.dev.endpoints[i].asym.stalled = true
			}
		}
		if cfg.DegradeAt > 0 && m.placementOn {
			dd := cfg.DegradeDevice % ndev
			m.sim.After(cfg.DegradeAt, func() {
				for _, ep := range m.devs[dd].endpoints {
					ep.asym.stalled = true
					ep.sym.stalled = true
				}
			})
			if cfg.RecoverAt > cfg.DegradeAt {
				m.sim.After(cfg.RecoverAt, func() {
					for _, ep := range m.devs[dd].endpoints {
						ep.asym.stalled = false
						ep.sym.stalled = false
					}
				})
			}
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{m: m, id: i}
		if m.dev != nil {
			w.endpoint = m.dev.endpoints[i%len(m.dev.endpoints)]
		}
		if m.placementOn {
			// Conn-hash homes the whole worker on one hash-picked device.
			home := m.devs[i%len(m.devs)]
			w.endpoint = home.endpoints[i%len(home.endpoints)]
		}
		if cfg.UseQAT && cfg.Async {
			w.notif = offload.NewNotifier(cfg.Notify)
		}
		m.workers = append(m.workers, w)
		if cfg.UseQAT && !cfg.Async {
			// QAT+S: the timer polling thread makes blocked responses
			// visible on its tick grid; modeled inside blocking waits.
			continue
		}
		if cfg.UseQAT && cfg.Poll.Scheme == offload.PollTimer {
			w.startTimerPolling()
		}
		if cfg.UseQAT && cfg.Poll.Scheme == offload.PollHeuristic {
			w.startFailoverTimer()
		}
	}
	return m
}

// Stats returns the current measurement window's statistics.
func (m *Model) Stats() *Stats { return m.stats }

// worker picks the worker for a new connection (round robin, like
// SO_REUSEPORT balancing).
func (m *Model) worker() *worker {
	w := m.workers[m.nextConn%len(m.workers)]
	m.nextConn++
	return w
}

// StartConn introduces a new connection at the current virtual time.
// start is the client-side initiation time (now - RTT/2 for a freshly
// dialed connection).
func (m *Model) StartConn(script []step, resumed bool, onDone func(at sim.Time)) {
	w := m.worker()
	if m.shedOn && m.shed.ShedAccept(w.inflight, m.p.RingCapacity, w.alive) {
		// Admission control: the accept is answered with a TCP reset
		// before any TLS work is spent. The client learns immediately, so
		// closed-loop drivers keep cycling instead of hanging.
		if m.measuring {
			m.stats.Sheds++
		}
		if onDone != nil {
			onDone(m.sim.Now())
		}
		return
	}
	c := &conn{
		w:       w,
		script:  script,
		start:   m.sim.Now() - sim.Time(m.p.RTT/2),
		resumed: resumed,
		onDone:  onDone,
	}
	w.alive++
	w.enqueue(c)
}

// Run executes warmup, resets counters, then measures for the given
// window and returns the stats.
func (m *Model) Run(warmup, measure time.Duration) *Stats {
	m.sim.RunFor(warmup)
	m.stats = newStats()
	for _, w := range m.workers {
		w.busyAccum = 0
		if w.busy {
			w.busyStart = m.sim.Now()
		}
	}
	m.measuring = true
	m.sim.RunFor(measure)
	m.measuring = false
	for _, w := range m.workers {
		m.stats.CPUBusy += w.busyAccum
		if w.busy {
			m.stats.CPUBusy += time.Duration(m.sim.Now() - w.busyStart)
			w.busyStart = m.sim.Now() // avoid double counting on reuse
		}
		if w.tripped {
			m.stats.Trips++
		}
	}
	return m.stats
}

// Utilization returns mean worker CPU utilization over the measurement
// window of length measure.
func (s *Stats) Utilization(workers int, measure time.Duration) float64 {
	if workers == 0 || measure == 0 {
		return 0
	}
	return float64(s.CPUBusy) / float64(measure) / float64(workers)
}

// CPS returns completed handshakes per second for the window length.
func (s *Stats) CPS(measure time.Duration) float64 {
	return float64(s.Handshakes) / measure.Seconds()
}

// Gbps returns served gigabits per second for the window length.
func (s *Stats) Gbps(measure time.Duration) float64 {
	return float64(s.BytesServed) * 8 / measure.Seconds() / 1e9
}

// --- device ---------------------------------------------------------------

// device models the QAT card: endpoints with parallel engines, FIFO
// request queues, and per-instance response rings polled by workers.
// Each endpoint has two engine pools, matching the hardware's split
// between public-key (PKE) engines and cipher/authentication engines.
type device struct {
	s         *sim.Simulation
	endpoints []*endpoint
}

type endpoint struct {
	asym enginePool
	sym  enginePool
}

type enginePool struct {
	s       *sim.Simulation
	engines int
	busy    int
	queue   sim.FIFO[*devReq]
	// stalled: the pool's engines hang. Requests are swallowed and their
	// done callback never fires; only the submitter's deadline saves it.
	stalled bool
}

type devReq struct {
	service time.Duration
	done    func(at sim.Time)
}

func newDevice(s *sim.Simulation, endpoints, asymEngines, symEngines int) *device {
	d := &device{s: s}
	for i := 0; i < endpoints; i++ {
		d.endpoints = append(d.endpoints, &endpoint{
			asym: enginePool{s: s, engines: asymEngines},
			sym:  enginePool{s: s, engines: symEngines},
		})
	}
	return d
}

// pool returns the engine pool serving an op class.
func (ep *endpoint) pool(op opClass) *enginePool {
	if op.asym() {
		return &ep.asym
	}
	return &ep.sym
}

// submit hands a request to the right engine pool; done fires at
// completion time. Load balancing across a pool's engines is implicit
// (any free engine takes the next queued request).
func (ep *endpoint) submit(op opClass, service time.Duration, done func(at sim.Time)) {
	pool := ep.pool(op)
	if pool.stalled {
		return // swallowed by the hung engine; done never fires
	}
	req := &devReq{service: service, done: done}
	if pool.busy < pool.engines {
		pool.start(req)
		return
	}
	pool.queue.Push(req)
}

func (pool *enginePool) start(req *devReq) {
	pool.busy++
	pool.s.After(req.service, func() {
		pool.busy--
		req.done(pool.s.Now())
		if next, ok := pool.queue.Pop(); ok {
			pool.start(next)
		}
	})
}

// --- link -----------------------------------------------------------------

// link models NIC serialization at line rate (shared FIFO).
type link struct {
	gbps   float64
	freeAt sim.Time
}

// sendDelay returns the extra delay to serialize n bytes starting now.
func (l *link) sendDelay(now sim.Time, n int) time.Duration {
	if n <= 0 || l.gbps <= 0 {
		return 0
	}
	// n bytes at gbps Gbit/s → nanoseconds on the wire.
	ser := time.Duration(float64(n) * 8 / (l.gbps * 1e9) * 1e9)
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + sim.Time(ser)
	return time.Duration(l.freeAt - now)
}

func (m *Model) String() string {
	return fmt.Sprintf("model[%s w=%d]", m.cfg.Name, m.cfg.Workers)
}
