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

// Config selects one offload configuration for a model run of the
// paper's testbed (§5.1: one QAT card in one server): the shared
// offload.Policy — the same value the live stack's server.RunConfig
// embeds, so the two stacks cannot name a configuration differently —
// plus the model-only knobs.
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
	script  []step   // shared with every conn of the same spec: read-only
	idx     int      // the next step of script
	start   sim.Time // client-side start (for latency)
	resumed bool
	onDone  func(at sim.Time)
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
}

func newStats() *Stats {
	return &Stats{Latency: new(metrics.Histogram)}
}

// Model is one configured simulation instance.
type Model struct {
	sim     *sim.Simulation
	p       Params
	cfg     Config
	workers []*worker
	dev     *device // the QAT card (nil for software configurations)
	link    *link

	measuring bool
	stats     *Stats
	nextConn  int
	// scripts holds one script per spec: BuildScript is a pure function
	// of the spec and the model's fixed Params.
	scripts map[ScriptSpec][]step
}

// NewModel builds a model for one configuration.
func NewModel(p Params, cfg Config, seed int64) *Model {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	cfg.Policy = cfg.Policy.WithDefaults()
	m := &Model{
		sim:     sim.New(seed),
		p:       p,
		cfg:     cfg,
		stats:   newStats(),
		link:    &link{gbps: p.LinkGbps},
		scripts: make(map[ScriptSpec][]step),
	}
	if cfg.UseQAT {
		m.dev = newDevice(m.sim, p.Endpoints, p.AsymEnginesPerEndpoint, p.SymEnginesPerEndpoint)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{m: m}
		if m.dev != nil {
			w.endpoint = m.dev.endpoints[i%len(m.dev.endpoints)]
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

// StartConn introduces a new connection running spec's script at the
// current virtual time. start is the client-side initiation time (now -
// RTT/2 for a freshly dialed connection).
func (m *Model) StartConn(spec ScriptSpec, resumed bool, onDone func(at sim.Time)) {
	script, ok := m.scripts[spec]
	if !ok {
		script = BuildScript(&m.p, spec)
		m.scripts[spec] = script
	}
	w := m.worker()
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
