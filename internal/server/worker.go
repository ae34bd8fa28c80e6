//go:build linux

package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qtls/internal/engine"
	"qtls/internal/flight"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/netpoll"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// Handler produces the response body for a request path; ok=false yields
// a 404. The server does not copy the body: records are sealed straight
// from it, across event-loop iterations when the cipher work is
// offloaded, so it must stay unchanged until the response has been
// written. Return a fresh slice per request or an immutable cached one
// (SizedBodyHandler, FileHandler), never a buffer the handler reuses.
type Handler func(path string) (body []byte, ok bool)

// WorkerStats are cumulative per-worker counters, safe to read from other
// goroutines.
type WorkerStats struct {
	Accepted       atomic.Int64
	Handshakes     atomic.Int64
	Resumed        atomic.Int64
	Requests       atomic.Int64
	BytesOut       atomic.Int64
	AsyncEvents    atomic.Int64
	RetryEvents    atomic.Int64
	HeuristicPolls atomic.Int64
	TimerPolls     atomic.Int64
	FailoverPolls  atomic.Int64
	// DeadlineWakeups counts paused-offload resumes forced by the op
	// deadline scan (graceful degradation of a sick device).
	DeadlineWakeups atomic.Int64
	// ShedAccepts / ShedKeepalive count admission-control rejections: a
	// TCP reset before any TLS bytes are spent, and a Connection: close
	// instead of keepalive reuse, respectively (offload.OverloadPolicy).
	ShedAccepts   atomic.Int64
	ShedKeepalive atomic.Int64
	// Recycled counts accepted connections served by a conn object from
	// the worker's free list rather than a new one.
	Recycled atomic.Int64
	// DeadlineExpired counts lifecycle-deadline expiries by class
	// (indexed by offload.DeadlineClass).
	DeadlineExpired [offload.NumDeadlineClasses]atomic.Int64
	ClosedConns     atomic.Int64
	Errors          atomic.Int64
	// Loop saturation: LoopIters counts event-loop iterations, Parks the
	// ones that blocked in epoll_wait (offload.PollPolicy.Park said so).
	// Every park ends one of three ways: a device completion wrote the
	// wake pipe, a socket (or Stop/Drain) event arrived, or the bound ran
	// out. LoopIters/Handshakes far above the handshake's op count means
	// the loop is spinning; ParkTimeouts growing with requests in flight
	// means wake-ups are being lost and the failover timer is carrying
	// retrieval.
	LoopIters       atomic.Int64
	Parks           atomic.Int64
	ParkDeviceWakes atomic.Int64
	ParkSocketWakes atomic.Int64
	ParkTimeouts    atomic.Int64
	// Socket syscalls: reads issued by connections' TLS layers and the
	// ones among them that found nothing (the readiness gate answers a
	// read it knows would block without one, see sockTransport), accept4
	// calls and the ones that found no connection, and transport writes
	// (each at least one write(2); flushes on writable events are not
	// counted).
	Reads             atomic.Int64
	WouldBlockReads   atomic.Int64
	Accepts           atomic.Int64
	WouldBlockAccepts atomic.Int64
	Writes            atomic.Int64
}

// Worker is one event-driven server worker: one epoll loop, one optional
// QAT crypto instance, many concurrent TLS connections — the unit the
// paper scales from 2 to 32 of (Fig. 7).
type Worker struct {
	id      int
	cfg     RunConfig // defaults resolved
	tlsTmpl *minitls.Config
	eng     *engine.Engine
	handler Handler
	reg     *metrics.Registry

	// pool is the device pool instances were allocated from; poolWide
	// marks a multi-device placement, under which admission control reads
	// the pool's aggregate pressure instead of this worker's engine.
	pool     *qat.Pool
	poolWide bool

	// Device-lifecycle state: the pool's health manager (nil when
	// unmanaged), the last lifecycle epoch this worker acted on, and the
	// worker's conn-hash home device. The Run loop ticks the manager,
	// compares the epoch once per iteration (one atomic load) and
	// re-derives the home when a device was quarantined or re-admitted —
	// established connections and the shared ticket ring are untouched,
	// only where new submissions land moves.
	lc      *qat.Lifecycle
	lcEpoch int64
	homeDev atomic.Int32

	// onAsync is asyncEventCallback as a func value, bound once: every
	// connection's wait context calls it.
	onAsync func(arg any)

	poller     *netpoll.Poller
	listener   *netpoll.Listener
	notifyPipe *netpoll.NotifyPipe // FD-based async notification
	stopPipe   *netpoll.NotifyPipe // cross-goroutine stop/wake

	conns map[int]*conn
	// free holds closed conns nothing can reach any more, for accept to
	// reuse (at most maxFreeConns; see reclaim).
	free []*conn
	// notif owns the completed-but-undelivered async events and their
	// delivery — the §3.4 queues (kernel-bypass async queue, FD queue),
	// shared with the DES through offload.Notifier.
	notif        *offload.Notifier
	retryQueue   []*conn // conns awaiting a submission retry
	activeConns  int     // TCactive = alive - idle (§4.3)
	asyncWaiting int     // conns with asyncPending set (deadline scan gate)

	lastPoll time.Time // last response-retrieval poll (failover timer)

	// Idle-decision state (offload.PollPolicy.Park): the work done so far
	// this iteration (responses retrieved plus handlers run), the run of
	// consecutive iterations that did none, and the instances whose wake
	// seam is armed for the current park (the engine's, or none).
	work      int
	idleIters int
	armed     []*qat.Instance

	wheel   *deadlineWheel // lifecycle deadlines (see wheel.go)
	ringCap int            // engine request-ring capacity (0 for SW)

	stopped  atomic.Bool
	draining atomic.Bool // graceful drain requested (Drain)
	// listenerOff marks the listener already closed by the drain sweep so
	// cleanup doesn't close it twice. Worker goroutine only.
	listenerOff bool
	// closeMu orders FD teardown against cross-goroutine wakes: cleanup
	// tears the pipes down exactly once under it, and wake() checks
	// fdsClosed before writing to the stop pipe, so Stop or Drain racing
	// a dying worker never touches a closed descriptor.
	closeMu   sync.Mutex
	fdsClosed bool

	Stats WorkerStats

	// Observability surface (see internal/trace). tracer/tr are nil-safe:
	// with tracing off the per-iteration cost is one atomic load.
	tracer *trace.Recorder // shared recorder behind /debug/trace
	tr     *trace.Buffer   // this worker's private span ring

	// Black-box flight recorder (see internal/flight). flight/fl are
	// nil-safe like tracer/tr: with the recorder disabled every journal
	// site costs one branch plus one atomic load.
	flight *flight.Recorder // shared recorder behind /debug/flight
	fl     *flight.Journal  // this worker's private event ring

	// Pre-created registry series (nil when reg is nil). The loop
	// histograms are only fed while tracing is enabled; gauges are
	// refreshed every loop iteration regardless. (The span-derived
	// histograms are fed by the one span subscriber, flight.AttachTrace.)
	histLoop     *metrics.Histogram // busy part of one loop iteration
	histPollWait *metrics.Histogram // time blocked in epoll_wait
	gInflight    *metrics.Gauge     // Rtotal, per worker
	gActive      *metrics.Gauge     // TCactive, per worker
	gConns       *metrics.Gauge     // live connections
	gWaiting     *metrics.Gauge     // conns with a paused offload
	gLag         *metrics.Gauge     // busy ns of the latest iteration
	gDrain       *metrics.Gauge     // 1 while a graceful drain runs

	// drainBy bounds how long a drained worker waits for its device to
	// answer the requests it still holds (drainDevice); drainReclaimed
	// counts the ring slots it reclaimed because the device still held
	// them past that bound (Stats.DrainReclaimed). Both sit last, after
	// WorkerStats: a field added to WorkerStats shifts every field behind
	// it, and that read 2-3 % more server CPU per resumed handshake on a
	// 2-core Xeon.
	drainBy        time.Time
	drainReclaimed atomic.Int64
}

// conn is one TLS connection in one object: its socket, its TLS state
// (handshake state included) and its event-loop state. The worker keeps
// closed conns on a free list and starts the next accepted connection's
// life in one (startLife) once nothing can reach the last one (reclaim);
// DESIGN.md "Connection lifetime" lists the holders.
type conn struct {
	nc  netpoll.Conn // initialised in place by Listener.AcceptTo
	tls minitls.Conn // initialised in place by minitls.Conn.Init
	// hdr backs the response header of the write in progress. The next
	// response reuses it: by then every seal of this one has delivered,
	// unless one was abandoned (serveRequest).
	hdr [96]byte
	life
}

// life is a conn's event-loop state for one connection. startLife zeroes
// it but for an allow-list.
type life struct {
	fd      int
	tp      sockTransport        // nc as tls reads and writes it
	handler func(*Worker, *conn) // a method expression: switching allocates nothing

	// asyncPending marks a paused offload job: read events are deferred
	// ("QTLS clears and saves the handler of the read event when an async
	// event is being expected", §4.2).
	asyncPending bool
	// pendingRead marks a read event deferred by event disorder. While it
	// is set the fd's read interest is dropped from the epoll set (see
	// onReadable), so the bytes the loop cannot consume yet do not wake
	// it; replayDeferredRead restores both.
	pendingRead bool
	// asyncDeadline forces a resume of the paused job when the op
	// deadline passes without a response (zero when deadlines are off);
	// the engine then degrades the op to software.
	asyncDeadline time.Time
	// notifyAt stamps (UnixNano) when the async event for this conn was
	// queued, so resumeAsync can attribute the notification phase. Zero
	// when tracing is off.
	notifyAt int64

	active bool
	// reqBuf holds request bytes read and not yet served, from reqOff on
	// (empty once all are served); [:reqScan] is known to hold no header
	// terminator past reqOff but one its last 3 bytes start.
	reqBuf          []byte
	reqOff, reqScan int
	writeHdr        []byte // response header of the write in progress
	writeBody       []byte // its body: the handler's slice, not a copy
	wantWrite       bool
	closeAfterWrite bool
	draining        bool // close once buffered output drains
	closed          bool

	// Worker queues listing the conn: the notifier's (an async event
	// queued) and the retry queue. A closed conn is not reused while
	// either is set (reclaim).
	queued      bool
	retryQueued bool

	// Deadline-wheel state (see wheel.go): whether a lifecycle deadline is
	// armed, its class, its absolute time, when the live wheel entry comes
	// due (zero when none is live), and the generation counter that lazily
	// stales old wheel entries on an earlier re-arm or close. dlGen carries
	// over into the next life, so an entry of an earlier one stays stale.
	dlArmed bool
	dlClass offload.DeadlineClass
	dlGen   uint64
	dlAt    time.Time
	dlDue   time.Time
}

// maxFreeConns bounds a worker's free list: closed conns past it go to the
// garbage collector.
const maxFreeConns = 256

// maxKeptReqBuf bounds the request buffer a conn keeps for its next life;
// one a long header grew past it is dropped.
const maxKeptReqBuf = 4 << 10

// NewWorker builds a worker. pool may be nil for the SW configuration;
// reg may be nil to disable the metrics/stub_status surface; tracer may
// be nil to disable span recording (the /debug/trace endpoint then 404s);
// fr may be nil to disable the flight recorder (the /debug/flight
// endpoint then 404s).
func NewWorker(id int, cfg RunConfig, addr string, tls *minitls.Config, pool *qat.Pool, handler Handler, reg *metrics.Registry, tracer *trace.Recorder, fr *flight.Recorder) (*Worker, error) {
	cfg = cfg.withDefaults()
	mode := cfg.asyncMode()
	async := mode != minitls.AsyncModeOff
	w := &Worker{
		id:      id,
		cfg:     cfg,
		handler: handler,
		reg:     reg,
		notif:   offload.NewNotifier(cfg.Notify),
		conns:   make(map[int]*conn),
		tracer:  tracer,
		tr:      tracer.Buffer(id), // nil recorder → nil (inert) buffer
		flight:  fr,
		fl:      fr.Journal(id), // nil recorder → nil (inert) journal
	}
	w.onAsync = w.asyncEventCallback
	w.wheel = newDeadlineWheel(cfg.Deadlines.Tick, time.Now())
	var err error
	if w.poller, err = netpoll.NewPoller(); err != nil {
		return nil, err
	}
	if w.listener, err = netpoll.Listen(addr); err != nil {
		w.poller.Close()
		return nil, err
	}
	if err := w.poller.Add(w.listener.FD(), true, false); err != nil {
		w.cleanup()
		return nil, err
	}
	if w.stopPipe, err = netpoll.NewNotifyPipe(); err != nil {
		w.cleanup()
		return nil, err
	}
	if err := w.poller.Add(w.stopPipe.ReadFD(), true, false); err != nil {
		w.cleanup()
		return nil, err
	}
	// poolWide: conn-hash placement is spreading work across several
	// devices, so admission control must read pool-wide pressure, not one
	// engine's.
	multi := pool != nil && pool.Size() > 1 && cfg.Placement == offload.PlacementConnHash
	w.pool = pool
	w.poolWide = multi
	// homeDev is where single-placement and conn-hash workers allocate
	// everything: device 0 exactly as before placement existed, or the
	// worker-hash device of the conn-hash mode.
	homeDev := 0
	if multi {
		homeDev = id % pool.Size()
	}
	w.homeDev.Store(int32(homeDev))
	if pool != nil {
		w.lc = pool.Lifecycle()
		if w.lc != nil {
			w.lcEpoch = w.lc.Epoch()
		}
	}
	if cfg.UseQAT {
		if pool == nil || pool.Size() == 0 {
			w.cleanup()
			return nil, errors.New("server: QAT configuration without a device")
		}
		// Placement happens inside the engine: the worker owns one instance
		// on every device the placement names — device 0 alone under single
		// placement, the whole pool under conn-hash, which prefers the
		// worker's home device and treats the other devices as spill (and
		// as re-home targets when the lifecycle quarantines the home).
		nDevs := 1
		if multi {
			nDevs = pool.Size()
		}
		var insts []*qat.Instance
		var instDevs []int
		for d := 0; d < nDevs; d++ {
			inst, err := pool.AllocInstance(d)
			if err != nil {
				w.cleanup()
				return nil, err
			}
			insts = append(insts, inst)
			instDevs = append(instDevs, d)
		}
		var err error
		w.eng, err = engine.New(engine.Config{
			Instances:       insts,
			InstanceDevices: instDevs,
			Placement:       cfg.Placement,
			HomeDevice:      homeDev,
			Lifecycle:       w.lc,
			Offload:         cfg.Offload,
			OpTimeout:       cfg.OpTimeout,
			MaxRetries:      cfg.MaxRetries,
			Trace:           w.tr,
			Flight:          w.fl,
		})
		if err != nil {
			w.cleanup()
			return nil, err
		}
		w.ringCap = w.eng.RingCapacity()
	}
	// The kernel-bypass scheme never writes a notification descriptor; fd
	// needs the pipe.
	if cfg.Notify != offload.NotifierKernelBypass && async {
		if w.notifyPipe, err = netpoll.NewNotifyPipe(); err != nil {
			w.cleanup()
			return nil, err
		}
		if err := w.poller.Add(w.notifyPipe.ReadFD(), true, false); err != nil {
			w.cleanup()
			return nil, err
		}
	}

	// The wake seam: a completion landing while the loop is parked writes
	// the stop pipe the loop already watches (wake tolerates a worker torn
	// down before its device).
	if w.eng != nil {
		for _, inst := range w.eng.Instances() {
			inst.SetWakeHook(w.wake)
		}
	}

	// Per-worker TLS template.
	tmpl := *tls
	tmpl.AsyncMode = mode
	if w.eng != nil {
		tmpl.Provider = w.eng
	}
	w.tlsTmpl = &tmpl
	w.lastPoll = time.Now()
	w.initSeries()
	return w, nil
}

func (w *Worker) cleanup() {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.fdsClosed {
		return
	}
	w.fdsClosed = true
	if w.poller != nil {
		w.poller.Close()
	}
	if w.listener != nil && !w.listenerOff {
		w.listener.Close()
	}
	if w.stopPipe != nil {
		w.stopPipe.Close()
	}
	if w.notifyPipe != nil {
		w.notifyPipe.Close()
	}
}

// Addr returns the worker's listening address.
func (w *Worker) Addr() string { return w.listener.Addr() }

// Engine returns the worker's QAT engine (nil for SW).
func (w *Worker) Engine() *engine.Engine { return w.eng }

// Stop asks the loop to exit and wakes it.
func (w *Worker) Stop() {
	if w.stopped.CompareAndSwap(false, true) {
		w.wake()
	}
}

// wake nudges the event loop out of epoll_wait. It tolerates a worker
// whose descriptors are already torn down (Stop or Drain racing the
// loop's own shutdown) by checking fdsClosed under closeMu.
func (w *Worker) wake() {
	w.closeMu.Lock()
	defer w.closeMu.Unlock()
	if w.fdsClosed || w.stopPipe == nil {
		return
	}
	w.stopPipe.Notify()
}

// Close releases the worker's descriptors without running its loop — the
// teardown path for workers that were built but never started (e.g. a
// later worker's construction failed). Idempotent, and safe after Run
// has exited.
func (w *Worker) Close() { w.cleanup() }

// Run drives the event loop until Stop. It must run on a single goroutine.
func (w *Worker) Run() {
	defer w.shutdown()
	for !w.stopped.Load() {
		// Loop profiling splits each iteration into the blocked part
		// (epoll_wait) and the busy part; the busy part is the event-loop
		// lag new events experience. Timestamping is skipped entirely
		// when tracing is off.
		tracing := w.tr.Active()
		var iterStart, busyStart time.Time
		if tracing {
			iterStart = time.Now()
		}
		timeout := w.waitTimeout()
		events, err := w.poller.Wait(timeout)
		if err != nil {
			w.Stats.Errors.Add(1)
			return
		}
		w.Stats.LoopIters.Add(1)
		if timeout > 0 {
			w.endPark(len(events))
		}
		if tracing {
			busyStart = time.Now()
			if w.histPollWait != nil {
				w.histPollWait.ObserveDuration(busyStart.Sub(iterStart))
			}
		}
		w.work = 0
		for _, ev := range events {
			w.dispatch(ev)
		}
		if w.eng != nil && w.cfg.Poll.Scheme == offload.PollTimer {
			if w.pollEngine(trace.TagTimer) > 0 {
				w.lastPoll = time.Now()
			}
			w.Stats.TimerPolls.Add(1)
		}
		// The failover timer goes first: when its deadline is what ended
		// a park, the poll that follows is the failover poll, whatever
		// the heuristic constraints would have said next.
		w.failoverCheck()
		if w.cfg.Poll.Scheme == offload.PollHeuristic {
			// Each iteration re-evaluates the heuristic constraints, so
			// responses are retrieved as soon as the timeliness condition
			// holds (§3.4). Whether the loop then iterates again or blocks
			// is the idle decision (waitTimeout).
			w.heuristicCheck()
		}
		w.deadlineCheck()
		w.advanceWheel()
		w.processAsyncQueue()
		w.processRetryQueue()
		w.maybeRehome()
		if w.draining.Load() && w.drainStep() {
			return // fully drained: deferred shutdown tears down cleanly
		}
		if w.reg != nil {
			w.updateGauges()
		}
		// Anomaly sweep: rate-limited internally to half a window bucket,
		// so per-iteration cost is one atomic load when disabled and one
		// clock read + CAS otherwise.
		w.flight.Check()
		if tracing {
			busy := time.Since(busyStart)
			if w.histLoop != nil {
				w.histLoop.ObserveDuration(busy)
			}
			if w.gLag != nil {
				w.gLag.Set(int64(busy))
			}
		}
		if w.work > 0 {
			w.idleIters = 0
			continue
		}
		// Nothing retrieved, no handler run: an empty spin, a park that
		// timed out, or events the loop could only set aside (a read
		// deferred by event disorder, a flush) — none of which is a reason
		// to start the spin budget over.
		w.idleIters++
		// The spin phase hands the CPU over between ring checks. The
		// simulated accelerator's engines are goroutines on this host's
		// CPUs (unlike the paper's ASIC), and the engine goroutine a
		// Submit just readied sits on this P's run queue. Parking straight
		// away would strand it there: the thread blocks in a raw
		// epoll_wait still holding its P until sysmon retakes it, and the
		// op does not start. Gosched runs it now. (Measured: parking with
		// no yield first cost +25 % TTFB and −10 % CPS against the spin
		// this replaces; see DESIGN.md "Event loop".)
		runtime.Gosched()
	}
}

func (w *Worker) shutdown() {
	// closeConn (not a bare nc.Close) so connections parked on an offload
	// cancel through the engine: the paused job settles, inflight counters
	// drop, and the fiber goroutine exits instead of leaking.
	for _, c := range w.conns {
		w.closeConn(c)
	}
	w.cleanup()
}

// waitTimeout picks the epoll timeout in milliseconds: 0 when the loop has
// work queued for itself or the idle decision says iterate again,
// otherwise the park bound — with the wake seam armed, so a completion
// ends the park early.
func (w *Worker) waitTimeout() int {
	if w.pendingNotifications() > 0 || len(w.retryQueue) > 0 {
		return 0
	}
	idle := offload.Idle{
		Spins:       w.idleIters,
		OpDeadlines: w.cfg.OpTimeout > 0 && w.asyncWaiting > 0,
	}
	if w.eng != nil {
		if idle.Inflight = w.eng.InflightTotal(); idle.Inflight > 0 {
			idle.SinceLastPoll = time.Since(w.lastPoll)
		}
	}
	if w.wheel.live > 0 {
		idle.WheelTick = w.wheel.tick
	}
	d, park := w.cfg.Poll.Park(idle)
	if !park {
		return 0
	}
	if idle.Inflight > 0 && !w.armWake() {
		return 0 // a response landed since the last ring check
	}
	return int((d + time.Millisecond - 1) / time.Millisecond)
}

// armWake arms the wake seam and then looks at the rings one last time —
// in that order, so a completion either is seen here or finds the flag
// set and writes the wake pipe. The engine's instances are armed only while
// the heuristic constraints hold, when the next iteration would retrieve a
// completion. (While they do not, a completion changes nothing — the
// response waits for more in-flight requests, a socket event or the
// failover timer, and the park bound already covers the last.) It reports
// whether the loop may block; on false the seam is disarmed again.
func (w *Worker) armWake() bool {
	if w.eng == nil || !w.cfg.Poll.ShouldPoll(w.eng.InflightTotal(), w.eng.InflightAsym(), w.activeConns) {
		return true
	}
	w.armed = w.eng.Instances()
	for _, inst := range w.armed {
		inst.ArmWake()
	}
	for _, inst := range w.armed {
		if inst.Available() > 0 {
			w.disarmWake()
			return false
		}
	}
	return true
}

// disarmWake closes the armed window, if one is open, and reports whether
// any completion fired the hook during it.
func (w *Worker) disarmWake() (fired bool) {
	for _, inst := range w.armed {
		if inst.DisarmWake() {
			fired = true
		}
	}
	w.armed = nil
	return fired
}

// endPark accounts for one finished park by what ended it.
func (w *Worker) endPark(events int) {
	fired := w.disarmWake()
	w.Stats.Parks.Add(1)
	switch {
	case events == 0:
		w.Stats.ParkTimeouts.Add(1)
	case fired:
		w.Stats.ParkDeviceWakes.Add(1)
	default:
		w.Stats.ParkSocketWakes.Add(1)
	}
}

func (w *Worker) dispatch(ev netpoll.Event) {
	switch ev.FD {
	case w.listener.FD():
		w.acceptOne()
	case w.stopPipe.ReadFD():
		w.stopPipe.Drain()
	default:
		if w.notifyPipe != nil && ev.FD == w.notifyPipe.ReadFD() {
			w.notifyPipe.Drain()
			w.processFDQueue()
			return
		}
		c, ok := w.conns[ev.FD]
		if !ok {
			return
		}
		if ev.Readable || ev.Closed {
			c.tp.readable()
		}
		if ev.Writable {
			if err := c.nc.Flush(); err != nil {
				w.closeConn(c)
				return
			}
			if c.draining && !c.nc.HasPending() {
				w.closeConn(c)
				return
			}
			w.updateWriteInterest(c)
		}
		if ev.Readable && !c.draining {
			w.onReadable(c)
		} else if ev.Closed && !ev.Readable {
			// Hang-up with nothing left to read.
			w.closeConn(c)
		}
	}
}

// acceptOne accepts one connection per listener event — nginx's
// multi_accept off. Looping until accept4 fails costs an EAGAIN per event
// when, as usual, one connection is pending; the listener is
// level-triggered, so a second pending connection ends the next
// epoll_wait.
func (w *Worker) acceptOne() {
	w.Stats.Accepts.Add(1)
	c, recycled := w.takeConn()
	if err := w.listener.AcceptTo(&c.nc); err != nil {
		w.free = append(w.free, c) // untouched: still nothing can reach it
		if errors.Is(err, netpoll.ErrWouldBlock) {
			w.Stats.WouldBlockAccepts.Add(1)
		}
		return // would-block or transient
	}
	if w.shedAccept(&c.nc) {
		w.free = append(w.free, c)
		return
	}
	w.Stats.Accepted.Add(1)
	if recycled {
		w.Stats.Recycled.Add(1)
	}
	w.startLife(c)
	if err := w.poller.Add(c.fd, true, false); err != nil {
		c.closed = true
		c.nc.Close()
		return
	}
	w.conns[c.fd] = c
	w.activeConns++
	w.invoke(c)
}

// takeConn returns a conn from the free list, or a new one.
func (w *Worker) takeConn() (c *conn, recycled bool) {
	if n := len(w.free); n > 0 {
		c = w.free[n-1]
		w.free = w.free[:n-1]
		return c, true
	}
	return new(conn), false
}

// startLife makes c the conn of the connection just accepted into c.nc.
// The event-loop state is zeroed but for its allow-list — the request
// buffer unless it grew past maxKeptReqBuf, and the deadline generation —
// and the TLS state is initialised in place (minitls.Conn.Init keeps its
// own allow-list), so nothing of the last life carries over by being
// forgotten.
func (w *Worker) startLife(c *conn) {
	reqBuf := c.reqBuf[:0]
	if cap(reqBuf) > maxKeptReqBuf {
		reqBuf = nil
	}
	c.life = life{
		fd:      c.nc.FD(),
		tp:      sockTransport{nc: &c.nc, st: &w.Stats},
		handler: (*Worker).handshakeHandler,
		active:  true,
		reqBuf:  reqBuf,
		dlGen:   c.dlGen,
	}
	c.tls.Init(&c.tp, w.tlsTmpl, true)
	// The connection-level async callback delivers events for every
	// offload job of this connection (one shared channel per connection,
	// §4.4).
	if w.tlsTmpl.AsyncMode != minitls.AsyncModeOff {
		c.tls.SetAsyncCallback(w.onAsync, c)
	}
}

// invoke runs the connection's current handler and then the heuristic
// checks ("wherever a crypto operation may be involved or TCactive may be
// updated", §4.3).
func (w *Worker) invoke(c *conn) {
	if c.closed {
		return
	}
	w.work++
	c.handler(w, c)
	if !c.closed {
		w.updateWriteInterest(c)
		w.rearmDeadline(c)
	}
	w.heuristicCheck()
}

func (w *Worker) onReadable(c *conn) {
	if c.asyncPending {
		// Event disorder: a read event arrived before the expected async
		// event. Defer it; the saved handler resumes after the async
		// event (§4.2). The socket is level-triggered, so until then its
		// unread bytes would end every epoll_wait at once — a pipelining
		// client would turn each park into a busy loop. Drop the read
		// interest; replayDeferredRead restores it.
		if !c.pendingRead {
			c.pendingRead = true
			w.poller.Mod(c.fd, false, c.wantWrite)
		}
		return
	}
	if !c.active {
		c.active = true
		w.activeConns++
	}
	w.invoke(c)
}

func (w *Worker) updateWriteInterest(c *conn) {
	want := c.nc.HasPending()
	if want != c.wantWrite {
		c.wantWrite = want
		w.poller.Mod(c.fd, !c.pendingRead, want)
	}
}

// replayDeferredRead ends event disorder for c: once the saved handler
// has run and is no longer waiting on an offload, the read interest
// onReadable dropped is restored and the deferred read event delivered.
func (w *Worker) replayDeferredRead(c *conn) {
	if c.closed || !c.pendingRead || c.asyncPending {
		return
	}
	c.pendingRead = false
	w.poller.Mod(c.fd, true, c.wantWrite)
	w.onReadable(c)
}

// setAsyncPending flips the conn's paused-offload mark and keeps the
// worker's count of waiting conns (the deadline-scan gate) in step.
func (w *Worker) setAsyncPending(c *conn, pending bool) {
	if c.asyncPending == pending {
		return
	}
	c.asyncPending = pending
	if pending {
		w.asyncWaiting++
	} else {
		w.asyncWaiting--
		c.asyncDeadline = time.Time{}
	}
}

func (w *Worker) closeConn(c *conn) {
	if c.closed {
		return
	}
	c.closed = true
	if c.asyncPending {
		// The connection is parked on an in-flight offload. Mark the op
		// cancelled and re-enter the saved handler: the paused job resumes,
		// the engine settles it as abandoned (inflight accounting and
		// breaker bookkeeping stay consistent), and the handler's own
		// closeConn call on the resulting error is a no-op via the closed
		// flag above.
		w.setAsyncPending(c, false)
		c.tls.CancelAsync()
		c.handler(w, c)
	}
	w.setAsyncPending(c, false)
	w.disarmDeadline(c)
	if c.active {
		c.active = false
		w.activeConns--
	}
	delete(w.conns, c.fd)
	// No epoll_ctl DEL: nc holds the socket's only descriptor, and closing
	// it takes the socket out of the epoll set.
	c.nc.Close()
	// What the TLS state holds from shared pools (PRF keys, a flight
	// buffer) goes back now; nothing dereferences it on a closed conn.
	c.tls.Release()
	w.Stats.ClosedConns.Add(1)
	w.reclaim(c)
}

// reclaim puts closed conn c on the free list once nothing can reach it.
// The worker's map no longer does (closeConn), and a deadline-wheel entry
// is stale for good (dlGen). Two holders remain. A worker queue listing c
// lets go when it pops it, and calls reclaim again. An offloaded op that
// was abandoned — settled by its deadline or a cancel while a device held
// it (minitls.Conn.OpAbandoned) or still in flight when the conn closed —
// never lets go: the device may still run the op, which reads c's op
// slots, handshake state and response header, so such a conn goes to the
// garbage collector instead.
func (w *Worker) reclaim(c *conn) {
	if !c.closed || c.queued || c.retryQueued ||
		c.tls.OpAbandoned() || c.tls.AsyncInFlight() ||
		len(w.free) == maxFreeConns {
		return
	}
	w.free = append(w.free, c)
}

// maybeRehome ticks the health manager and reacts to its device
// transitions. Every worker ticks it once per iteration; the manager runs
// a watchdog pass at most once per tick interval across all of them. When
// the lifecycle epoch moved since the last iteration, a conn-hash worker
// re-derives its home device through the pool's lifecycle-aware RouteConn
// — off a quarantined device, and back once probation re-admits it. The
// move is live: established connections, paused offload jobs and the
// shared ticket ring are untouched; only the engine's preferred device
// (where new submissions land) changes. Runs on the worker goroutine;
// costs a clock read and two atomic loads per iteration when nothing is
// due.
func (w *Worker) maybeRehome() {
	if w.lc == nil {
		return
	}
	w.lc.Tick()
	epoch := w.lc.Epoch()
	if epoch == w.lcEpoch {
		return
	}
	w.lcEpoch = epoch
	if w.eng == nil || !w.poolWide {
		return
	}
	dev := w.pool.RouteConn(uint64(w.id))
	if dev < 0 {
		// Every device is quarantined. Stay put: the engine's lifecycle
		// admission check refuses every instance and ops degrade to the
		// software path until a device comes back.
		return
	}
	prev := w.eng.HomeDevice()
	if w.eng.Rehome(dev) {
		w.homeDev.Store(int32(dev))
		// Journal the move for both op classes, the codes an engine flip
		// carries, so the flight dump shows which worker was re-homed, from
		// where, to where.
		w.fl.Note(flight.KindPlacement, flight.PlacementAsym, trace.OpNone, int64(prev), int64(dev))
		w.fl.Note(flight.KindPlacement, flight.PlacementSym, trace.OpNone, int64(prev), int64(dev))
	}
}

// HomeDevice returns the worker's current conn-hash home device (0 for
// other placements). Safe from any goroutine — live observers (chaos
// harness, qatinfo) read it while the worker re-homes.
func (w *Worker) HomeDevice() int { return int(w.homeDev.Load()) }

// ConnCount returns the number of live connections (test/diagnostic use;
// call from the worker goroutine or after Stop).
func (w *Worker) ConnCount() int { return len(w.conns) }

// String identifies the worker.
func (w *Worker) String() string {
	return fmt.Sprintf("worker-%d[%s]", w.id, w.cfg.Name)
}
