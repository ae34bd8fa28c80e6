//go:build linux

package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"qtls/internal/engine"
	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// ErrFlightWithoutTrace is returned by New for Options.Flight without
// Options.Trace: the flight recorder's windows and SLO trigger are fed by
// committed spans, so without a span recorder they would never move.
var ErrFlightWithoutTrace = errors.New("server: the flight recorder needs the trace recorder (its span source)")

// engineCounters are the degradation counters the engines keep. A scrape
// sums each over the workers; with qat_faults_injected they are listed by
// stub_status at zero before any fault fires.
var engineCounters = []struct {
	name string
	get  func(engine.Stats) int64
}{
	{"qat_op_timeouts", func(st engine.Stats) int64 { return st.Timeouts }},
	{"qat_op_cancels", func(st engine.Stats) int64 { return st.Cancels }},
	{"qat_sw_fallbacks", func(st engine.Stats) int64 { return st.SWFallbacks }},
	{"qat_instance_trips", func(st engine.Stats) int64 { return st.Trips }},
	{"qat_retries", func(st engine.Stats) int64 { return st.Retries }},
}

// Options configures a multi-worker server.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port). All
	// workers share the port via SO_REUSEPORT, like Nginx worker
	// processes.
	Addr string
	// Workers is the number of event-loop workers (default 1). The paper
	// varies this from 2 to 32 (Fig. 7).
	Workers int
	// Run selects the offload configuration (SW / QAT+S / ... / QTLS).
	Run RunConfig
	// TLS is the TLS template: identity, suites, session cache, tickets.
	// Provider and AsyncMode are overridden per the Run configuration.
	TLS *minitls.Config
	// Pool supplies the QAT devices shared by all workers (required for
	// QAT configurations; qat.PoolOf wraps a single device). How workers
	// spread instances across the pool is selected by Run.Placement;
	// with PlacementSingle every worker allocates its
	// crypto instance on Pool.Device(0), distributed across that device's
	// endpoints.
	Pool *qat.Pool
	// Handler serves request paths.
	Handler Handler
	// Metrics is the registry behind the /stub_status and /metrics
	// endpoints. nil creates a private registry, so stub_status always
	// works.
	Metrics *metrics.Registry
	// Trace, when set, enables the four-phase span recorder behind the
	// /debug/trace endpoint; each worker gets a private ring buffer from
	// it. nil disables span recording (and /debug/trace 404s).
	Trace *trace.Recorder
	// Flight, when set, wires the black-box flight recorder: each worker
	// gets a private event journal, breaker transitions and fault
	// injections are journaled, span windows feed the `_w60s` metric
	// series, and the /debug/flight endpoint serves anomaly dumps. nil
	// disables the flight surface (and /debug/flight 404s). It requires
	// Trace (ErrFlightWithoutTrace): the recorder consumes committed spans.
	Flight *flight.Recorder
}

// Server is a set of event-driven workers sharing one listening port.
type Server struct {
	workers   []*Worker
	reg       *metrics.Registry
	pool      *qat.Pool
	lifecycle *qat.Lifecycle // health manager (nil when off)
	tickets   *minitls.TicketKeyRing
	wg        sync.WaitGroup
	started   atomic.Bool
}

// New builds the workers (not yet running).
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.TLS == nil {
		return nil, fmt.Errorf("server: TLS config required")
	}
	if opts.Handler == nil {
		return nil, fmt.Errorf("server: Handler required")
	}
	if opts.Flight != nil && opts.Trace == nil {
		return nil, ErrFlightWithoutTrace
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	pool := opts.Pool
	s := &Server{reg: reg, pool: pool}
	// Counters are read where they are kept, at scrape time: the engines'
	// degradation counts summed over the workers, and the injected faults
	// summed over the pool's injectors (devices may share one spec — and
	// therefore one injector — so each counts once).
	for _, c := range engineCounters {
		get := c.get
		reg.CounterFunc(c.name, func() int64 {
			var n int64
			for _, w := range s.workers {
				if w.eng != nil {
					n += get(w.eng.Stats())
				}
			}
			return n
		})
	}
	var injectors []*fault.Injector
	if pool != nil {
		seen := make(map[*fault.Injector]bool)
		for _, d := range pool.Devices() {
			if inj := d.Spec().Injector; inj != nil && !seen[inj] {
				seen[inj] = true
				injectors = append(injectors, inj)
			}
		}
	}
	reg.CounterFunc("qat_faults_injected", func() int64 {
		var n int64
		for _, inj := range injectors {
			n += inj.TotalInjected()
		}
		return n
	})
	// The one span subscriber: every committed span feeds the lifetime
	// phase and poll-batch histograms and the flight recorder's windows and
	// slow-span journal.
	flight.AttachTrace(opts.Trace, reg, opts.Flight)
	fl := opts.Flight.Journal(flight.SystemWorker) // nil (inert) without a recorder
	if opts.Flight != nil {
		// Windowed series join the /metrics exposition; every injected
		// fault lands in the black-box journal with its kind and
		// endpoint/op.
		opts.Flight.Register(reg)
		for _, inj := range injectors {
			inj.SetEventSink(func(k fault.Kind, endpoint, op int) {
				fl.Note(flight.KindFault, uint8(k), trace.Op(op), int64(endpoint), 0)
			})
		}
	}
	if pool != nil && opts.Run.Lifecycle {
		// Health manager on wall time: trip sick instances, quarantine sick
		// devices, probe them back. Device transitions are journaled as
		// flight lifecycle events and exported as the qtls_device_state{dev}
		// gauges; workers tick it, and notice transitions via its epoch to
		// re-home their conn-hash engines.
		lc := qat.NewLifecycle(pool, nil)
		gauges := make([]*metrics.Gauge, pool.Size())
		for d := range gauges {
			gauges[d] = reg.Gauge(fmt.Sprintf(`qtls_device_state{dev="%d"}`, d))
		}
		lc.SetOnTransition(func(tr qat.Transition) {
			fl.Note(flight.KindLifecycle, uint8(tr.Reason), trace.OpNone,
				flight.PackLifecycleStates(int64(tr.From), int64(tr.To)), int64(tr.Dev))
			if tr.Dev >= 0 && tr.Dev < len(gauges) {
				gauges[tr.Dev].Set(int64(tr.To))
			}
		})
		s.lifecycle = lc
	}
	// Conn-hash placement spreads connections across workers and devices;
	// resumption must survive whichever worker a reconnect hashes to, so
	// provision a shared rotating ticket-key ring when the caller has not
	// configured any session-ticket key of their own.
	tlsCfg := opts.TLS
	if opts.Run.Placement != offload.PlacementSingle &&
		tlsCfg.TicketKeys == nil && tlsCfg.TicketKey == nil {
		ring, err := minitls.GenerateTicketKeyRing(0)
		if err != nil {
			return nil, err
		}
		c := *tlsCfg
		c.TicketKeys = ring
		tlsCfg = &c
	}
	s.tickets = tlsCfg.TicketKeys
	addr := opts.Addr
	for i := 0; i < opts.Workers; i++ {
		w, err := NewWorker(i, opts.Run, addr, tlsCfg, pool, opts.Handler, reg, opts.Trace, opts.Flight)
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
		// Subsequent workers bind the same concrete port.
		addr = w.Addr()
	}
	return s, nil
}

// Pool returns the device pool the workers allocate from: the Options
// pool, or the wrapper around a bare Options.Device. Nil for SW servers
// built without a device.
func (s *Server) Pool() *qat.Pool { return s.pool }

// TicketKeys returns the shared session-ticket key ring — the one the
// caller configured, or the ring New provisioned for a sharded
// placement. Rotating it affects every worker at once. Nil when the
// server resumes through a static TicketKey or not at all.
func (s *Server) TicketKeys() *minitls.TicketKeyRing { return s.tickets }

// Lifecycle returns the health manager (nil when Run.Lifecycle is off or
// the server has no pool).
func (s *Server) Lifecycle() *qat.Lifecycle { return s.lifecycle }

// Start launches every worker loop on its own goroutine.
func (s *Server) Start() {
	s.started.Store(true)
	for _, w := range s.workers {
		w := w
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run()
		}()
	}
}

// Addr returns the shared listening address.
func (s *Server) Addr() string { return s.workers[0].Addr() }

// Workers returns the workers (for stats inspection).
func (s *Server) Workers() []*Worker { return s.workers }

// Metrics returns the registry backing /stub_status.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Stats aggregates worker counters.
type Stats struct {
	Accepted, Handshakes, Resumed, Requests, BytesOut int64
	AsyncEvents, RetryEvents                          int64
	HeuristicPolls, TimerPolls, FailoverPolls         int64
	DeadlineWakeups                                   int64
	ShedAccepts, ShedKeepalive                        int64
	DeadlineExpired                                   [offload.NumDeadlineClasses]int64
	Errors                                            int64
	// Loop saturation (see WorkerStats): iterations, and the parks among
	// them by what ended each.
	LoopIters, Parks                               int64
	ParkDeviceWakes, ParkSocketWakes, ParkTimeouts int64
	// Socket syscalls (see WorkerStats).
	Reads, WouldBlockReads, Accepts, WouldBlockAccepts, Writes int64
}

// Stats sums all worker counters.
func (s *Server) Stats() Stats {
	var t Stats
	for _, w := range s.workers {
		t.Accepted += w.Stats.Accepted.Load()
		t.Handshakes += w.Stats.Handshakes.Load()
		t.Resumed += w.Stats.Resumed.Load()
		t.Requests += w.Stats.Requests.Load()
		t.BytesOut += w.Stats.BytesOut.Load()
		t.AsyncEvents += w.Stats.AsyncEvents.Load()
		t.RetryEvents += w.Stats.RetryEvents.Load()
		t.HeuristicPolls += w.Stats.HeuristicPolls.Load()
		t.TimerPolls += w.Stats.TimerPolls.Load()
		t.FailoverPolls += w.Stats.FailoverPolls.Load()
		t.DeadlineWakeups += w.Stats.DeadlineWakeups.Load()
		t.ShedAccepts += w.Stats.ShedAccepts.Load()
		t.ShedKeepalive += w.Stats.ShedKeepalive.Load()
		for i := range w.Stats.DeadlineExpired {
			t.DeadlineExpired[i] += w.Stats.DeadlineExpired[i].Load()
		}
		t.Errors += w.Stats.Errors.Load()
		t.LoopIters += w.Stats.LoopIters.Load()
		t.Parks += w.Stats.Parks.Load()
		t.ParkDeviceWakes += w.Stats.ParkDeviceWakes.Load()
		t.ParkSocketWakes += w.Stats.ParkSocketWakes.Load()
		t.ParkTimeouts += w.Stats.ParkTimeouts.Load()
		t.Reads += w.Stats.Reads.Load()
		t.WouldBlockReads += w.Stats.WouldBlockReads.Load()
		t.Accepts += w.Stats.Accepts.Load()
		t.WouldBlockAccepts += w.Stats.WouldBlockAccepts.Load()
		t.Writes += w.Stats.Writes.Load()
	}
	return t
}

// Stop terminates all workers and waits for their loops to exit. It is
// the hard cutoff: in-flight requests are cancelled, not completed.
func (s *Server) Stop() {
	for _, w := range s.workers {
		if w != nil {
			w.Stop()
		}
	}
	if !s.started.Load() {
		// Built but never run (the New error path, or a caller that
		// changed its mind): no loop will ever execute the deferred
		// shutdown, so release the descriptors here.
		for _, w := range s.workers {
			if w != nil {
				w.Close()
			}
		}
		return
	}
	s.wg.Wait()
}

// Shutdown drains the server gracefully: every worker stops accepting,
// lets admitted requests and in-flight QAT responses complete, sends TLS
// close-notify on idle keepalive connections, and only then tears down
// its poller and pipes. When ctx expires first, Shutdown falls back to the
// hard Stop cutoff and returns the context's error.
func (s *Server) Shutdown(ctx context.Context) error {
	for _, w := range s.workers {
		if w != nil {
			w.Drain()
		}
	}
	if !s.started.Load() {
		for _, w := range s.workers {
			if w != nil {
				w.Close()
			}
		}
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.Stop()
		return ctx.Err()
	}
}

// SizedBodyHandler serves "/<n>" paths with n bytes of deterministic
// content ('a'+i%26) — the fixed-size file workload of Fig. 10 (ab
// requesting a fixed file). One maxSize body is built at construction
// and every response is a prefix of it, never modified after, so serving
// allocates nothing and the set of requested paths cannot grow the heap.
// Unknown paths 404.
func SizedBodyHandler(maxSize int) Handler {
	body := make([]byte, maxSize)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	return func(path string) ([]byte, bool) {
		if len(path) < 2 || path[0] != '/' {
			return nil, false
		}
		n, err := strconv.Atoi(path[1:])
		if err != nil || n < 0 || n > maxSize {
			return nil, false
		}
		return body[:n:n], true
	}
}
