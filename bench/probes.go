//go:build linux

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/engine"
	"qtls/internal/flight"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/netpoll"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/record"
	"qtls/internal/trace"
)

// Layer probes: each times calls into one layer's public functions in
// isolation, in this process, with no server child involved. They give
// the unit costs the closure check multiplies by the per-operation
// counts of the traced pass, and they are what a change to one layer
// should move first. They supersede the functional-stack micro-benchmarks
// of the root bench_test.go.

// meter brackets the timed section of one probe batch.
type meter struct {
	t0      time.Time
	m0      uint64
	dur     time.Duration
	mallocs uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *meter) start() { m.m0 = mallocs(); m.t0 = time.Now() }
func (m *meter) stop()  { m.dur += time.Since(m.t0); m.mallocs += mallocs() - m.m0 }

// probeBody runs n operations of one probe, bracketing the timed part
// with the meter. probeSetup builds a body and its optional clean-up.
type (
	probeBody  func(n int, m *meter) error
	probeSetup func() (probeBody, func(), error)
)

// probeCost is the outcome of one probe.
type probeCost struct {
	ns     float64 // per operation, median of the batch means
	allocs float64 // per operation, process-wide, over all batches
}

// probe sizes a batch so that probeBatches of them fill dur, runs them,
// and reports the median batch mean: a stolen or preempted batch moves
// one sample, not the result.
func probe(fn probeBody, dur time.Duration) (probeCost, error) {
	n := 1
	for {
		var m meter
		if err := fn(n, &m); err != nil {
			return probeCost{}, err
		}
		if m.dur >= dur/probeBatches/2 || n >= 1<<24 {
			if m.dur > 0 {
				n = max(1, int(float64(n)*float64(dur/probeBatches)/float64(m.dur)))
			}
			break
		}
		n *= 2
	}
	var means []float64
	var allocs uint64
	for b := 0; b < probeBatches; b++ {
		var m meter
		if err := fn(n, &m); err != nil {
			return probeCost{}, err
		}
		means = append(means, float64(m.dur)/float64(n))
		allocs += m.mallocs
	}
	return probeCost{ns: median(means), allocs: float64(allocs) / float64(n*probeBatches)}, nil
}

// simple wraps a per-call function into a probe body.
func simple(call func()) probeBody {
	return func(n int, m *meter) error {
		m.start()
		for i := 0; i < n; i++ {
			call()
		}
		m.stop()
		return nil
	}
}

// runProbes runs every layer probe for dur each and returns the per-layer
// metrics they produce, by name.
func runProbes(dur time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []struct {
		name string // metric stem
		time string // unit of the time metric: "ns" or "us"
		body probeSetup
	}{
		{"engine.roundtrip", "us", engineRoundTrip},
		{"qat.submit_poll", "ns", qatSubmitPoll},
		{"qat.submit_batch48", "ns_per_op", qatSubmitBatch48},
		{"offload.should_poll", "ns", offloadShouldPoll},
		{"offload.notify_bypass", "ns", offloadNotifyBypass},
		{"offload.notify_fd", "ns", offloadNotifyFD},
		{"trace.record_enabled", "ns", traceRecordEnabled},
		{"minitls.hs_full_pair", "us", func() (probeBody, func(), error) { return handshakePair(false) }},
		{"minitls.hs_resumed_pair", "us", func() (probeBody, func(), error) { return handshakePair(true) }},
		{"minitls.record_write_16k", "us", func() (probeBody, func(), error) { return recordIO(true) }},
		{"minitls.record_read_16k", "us", func() (probeBody, func(), error) { return recordIO(false) }},
		{"netpoll.conn_cycle", "us", netpollConnCycle},
		{"netpoll.wait_ready", "ns", netpollWaitReady},
		{"asynclib.pause_resume", "ns", asynclibPauseResume},
		{"record.stream_seal_16k", "us", recordStreamSeal},
		{"metrics.histogram_observe", "ns", metricsObserve},
		{"flight.window_observe", "ns", flightObserve},
	} {
		body, cleanup, err := p.body()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		cost, err := probe(body, dur)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		if p.time == "us" {
			out[p.name+"_us"] = cost.ns / 1e3
		} else {
			out[p.name+"_"+p.time] = cost.ns
		}
		out[p.name+"_allocs"] = cost.allocs
	}
	return out, nil
}

// --- engine, qat ---------------------------------------------------------

func probeInstance(ringCap int) (*qat.Device, *qat.Instance, error) {
	spec := deviceSpec
	if ringCap > 0 {
		spec.RingCapacity = ringCap
	}
	dev := qat.NewDevice(spec)
	inst, err := dev.AllocInstance()
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	return dev, inst, nil
}

// engineRoundTrip is one async offload through the engine in stack mode:
// submit, poll until the response lands, consume the result.
func engineRoundTrip() (probeBody, func(), error) {
	dev, inst, err := probeInstance(0)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(engine.Config{Instance: inst})
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
	work := func() (any, error) { return nil, nil }
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if _, err := eng.Do(call, minitls.KindPRF, work); !errors.Is(err, minitls.ErrWantAsync) {
				return fmt.Errorf("submit: %v", err)
			}
			for eng.Poll(0) == 0 {
				runtime.Gosched()
			}
			if _, err := eng.Do(call, minitls.KindPRF, nil); err != nil {
				return err
			}
		}
		return nil
	}, dev.Close, nil
}

// qatSubmitPoll is one request through the device: ring submit, engine
// goroutine, response ring, poll.
func qatSubmitPoll() (probeBody, func(), error) {
	dev, inst, err := probeInstance(0)
	if err != nil {
		return nil, nil, err
	}
	req := qat.Request{Op: qat.OpPRF, Work: func() (any, error) { return nil, nil }}
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if err := inst.Submit(req); err != nil {
				return err
			}
			for inst.Poll(0) == 0 {
				runtime.Gosched()
			}
		}
		return nil
	}, dev.Close, nil
}

// qatSubmitBatch48 is the per-request cost of SubmitBatch at the asym
// threshold's batch size, drained by polls when the ring fills.
func qatSubmitBatch48() (probeBody, func(), error) {
	dev, inst, err := probeInstance(256)
	if err != nil {
		return nil, nil, err
	}
	reqs := make([]qat.Request, offload.DefaultAsymThreshold)
	for i := range reqs {
		reqs[i] = qat.Request{Op: qat.OpRSA, Work: func() (any, error) { return nil, nil }}
	}
	return func(n int, m *meter) error {
		m.start()
		for i := 0; i < n; i += len(reqs) {
			for pending := reqs; len(pending) > 0; {
				k, err := inst.SubmitBatch(pending)
				pending = pending[k:]
				if err != nil {
					if !errors.Is(err, qat.ErrRingFull) {
						m.stop()
						return err
					}
					inst.Poll(0)
				}
			}
		}
		m.stop()
		for inst.Inflight() > 0 {
			inst.Poll(0)
			runtime.Gosched()
		}
		return nil
	}, dev.Close, nil
}

// --- offload -------------------------------------------------------------

var sinkBool bool

func offloadShouldPoll() (probeBody, func(), error) {
	p := offload.PollPolicy{Scheme: offload.PollHeuristic}.WithDefaults()
	return simple(func() { sinkBool = p.ShouldPoll(10, 2, 100) }), nil, nil
}

// offloadNotifyBypass is one event through the kernel-bypass notifier:
// queue it, hand it back at the end-of-loop drain.
func offloadNotifyBypass() (probeBody, func(), error) {
	nt := offload.NewNotifier(offload.NotifierKernelBypass)
	h := any(&struct{}{})
	return simple(func() {
		nt.Wake(h)
		nt.Deliver(offload.DeliverLoopEnd)
	}), nil, nil
}

// offloadNotifyFD is one event through the FD notifier the way the
// worker pays for it: pipe write, epoll wakeup, pipe drain, delivery.
func offloadNotifyFD() (probeBody, func(), error) {
	nt := offload.NewNotifier(offload.NotifierFD)
	poller, err := netpoll.NewPoller()
	if err != nil {
		return nil, nil, err
	}
	pipe, err := netpoll.NewNotifyPipe()
	if err != nil {
		poller.Close()
		return nil, nil, err
	}
	cleanup := func() { pipe.Close(); poller.Close() }
	if err := poller.Add(pipe.ReadFD(), true, false); err != nil {
		cleanup()
		return nil, nil, err
	}
	h := any(&struct{}{})
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if nt.Wake(h) {
				if err := pipe.Notify(); err != nil {
					return err
				}
			}
			if _, err := poller.Wait(-1); err != nil {
				return err
			}
			pipe.Drain()
			nt.Deliver(offload.DeliverWakeup)
		}
		return nil
	}, cleanup, nil
}

// --- telemetry -----------------------------------------------------------

func traceRecordEnabled() (probeBody, func(), error) {
	rec := trace.NewRecorder(4096)
	rec.SetEnabled(true)
	buf := rec.Buffer(0)
	now := time.Now()
	i := int64(0)
	return simple(func() {
		i++
		buf.Record(trace.PhasePre, trace.Op(0), trace.TagNone, i, now, time.Microsecond)
	}), nil, nil
}

func metricsObserve() (probeBody, func(), error) {
	h := metrics.NewHistogram(0)
	i := 0
	return simple(func() {
		i++
		h.Observe(float64(i%1000 + 1))
	}), nil, nil
}

func flightObserve() (probeBody, func(), error) {
	w := flight.NewWindow(12, 5*time.Second)
	i := int64(0)
	return simple(func() {
		i++
		w.Observe(float64(i%1000+1), i*int64(time.Millisecond))
	}), nil, nil
}

func asynclibPauseResume() (probeBody, func(), error) {
	stop := errors.New("probe over")
	quit := false
	st, job, err := asynclib.StartJob(nil, func(j *asynclib.Job) error {
		for !quit {
			if err := j.Pause(); err != nil {
				return err
			}
		}
		return stop
	})
	if err != nil || st != asynclib.StatusPause {
		return nil, nil, fmt.Errorf("start job: %v %v", st, err)
	}
	cleanup := func() {
		quit = true // read by the fiber only after the hand-off below
		asynclib.StartJob(job, nil)
	}
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if st, _, err := asynclib.StartJob(job, nil); err != nil || st != asynclib.StatusPause {
				return fmt.Errorf("resume: %v %v", st, err)
			}
		}
		return nil
	}, cleanup, nil
}

// --- minitls over an in-memory pipe ----------------------------------------

// memPipe is one direction of an unbounded in-memory byte pipe. Unlike
// net.Pipe a write never waits for the reader, so the write side and the
// read side of a record can be timed apart.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	data []byte
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

type pipeEnd struct{ r, w *memPipe }

func newPipePair() (a, b pipeEnd) {
	ab, ba := newMemPipe(), newMemPipe()
	return pipeEnd{r: ba, w: ab}, pipeEnd{r: ab, w: ba}
}

func (e pipeEnd) Read(p []byte) (int, error) {
	e.r.mu.Lock()
	defer e.r.mu.Unlock()
	for len(e.r.data) == 0 {
		e.r.cond.Wait()
	}
	n := copy(p, e.r.data)
	e.r.data = e.r.data[n:]
	if len(e.r.data) == 0 {
		e.r.data = nil // let the consumed backing array go
	}
	return n, nil
}

func (e pipeEnd) Write(p []byte) (int, error) {
	e.w.mu.Lock()
	e.w.data = append(e.w.data, p...)
	e.w.cond.Broadcast()
	e.w.mu.Unlock()
	return len(p), nil
}

func probeServerConfig() (*minitls.Config, error) {
	id, ticket, err := loadIdentity()
	if err != nil {
		return nil, err
	}
	return &minitls.Config{Identity: id, CipherSuites: suite, TicketKey: ticket}, nil
}

// shake runs one handshake pair over a fresh pipe: the server on this
// goroutine, the client on the helper behind work/done.
func shake(srvCfg, cliCfg *minitls.Config, work chan<- *minitls.Conn, done <-chan error) (srv, cli *minitls.Conn, err error) {
	ct, st := newPipePair()
	srv = minitls.Server(st, srvCfg)
	cli = minitls.ClientConn(ct, cliCfg)
	work <- cli
	serr := srv.Handshake()
	if cerr := <-done; cerr != nil {
		return nil, nil, fmt.Errorf("client handshake: %w", cerr)
	}
	if serr != nil {
		return nil, nil, fmt.Errorf("server handshake: %w", serr)
	}
	return srv, cli, nil
}

// handshakeClient starts the helper goroutine that runs client
// handshakes; closing work ends it.
func handshakeClient() (chan<- *minitls.Conn, <-chan error) {
	work := make(chan *minitls.Conn)
	done := make(chan error)
	go func() {
		for c := range work {
			done <- c.Handshake()
		}
	}()
	return work, done
}

// handshakePair is one full or ticket-resumed ECDHE-RSA handshake,
// client and server together, software crypto on both sides.
func handshakePair(resumed bool) (probeBody, func(), error) {
	srvCfg, err := probeServerConfig()
	if err != nil {
		return nil, nil, err
	}
	work, done := handshakeClient()
	cleanup := func() { close(work) }
	cliCfg := &minitls.Config{CipherSuites: suite}
	if resumed {
		_, cli, err := shake(srvCfg, &minitls.Config{CipherSuites: suite, RequestTicket: true}, work, done)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		if cliCfg.Session = cli.ResumptionSession(); cliCfg.Session == nil {
			cleanup()
			return nil, nil, errors.New("no session ticket issued")
		}
	}
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			srv, _, err := shake(srvCfg, cliCfg, work, done)
			if err != nil {
				return err
			}
			if srv.ConnectionState().DidResume != resumed {
				return fmt.Errorf("resumed=%t, want %t", !resumed, resumed)
			}
		}
		return nil
	}, cleanup, nil
}

// recordIO times one side of a 16 KB application record: the server's
// Write (seal + frame into the pipe) or the client's Read (parse + open +
// copy out), each with the other side outside the timed section.
func recordIO(write bool) (probeBody, func(), error) {
	srvCfg, err := probeServerConfig()
	if err != nil {
		return nil, nil, err
	}
	work, done := handshakeClient()
	srv, cli, err := shake(srvCfg, &minitls.Config{CipherSuites: suite}, work, done)
	close(work)
	if err != nil {
		return nil, nil, err
	}
	payload := bytes.Repeat([]byte{'b'}, minitls.MaxPlaintext)
	buf := make([]byte, minitls.MaxPlaintext)
	return func(n int, m *meter) error {
		// At most 256 sealed records (4 MB) wait in the pipe at once.
		for done := 0; done < n; {
			k := min(256, n-done)
			done += k
			if write {
				m.start()
			}
			for i := 0; i < k; i++ {
				if _, err := srv.Write(payload); err != nil {
					return err
				}
			}
			if write {
				m.stop()
			} else {
				m.start()
			}
			for i := 0; i < k; i++ {
				if _, err := io.ReadFull(tlsReader{cli}, buf); err != nil {
					return err
				}
			}
			if !write {
				m.stop()
			}
		}
		return nil
	}, nil, nil
}

// --- record engine ---------------------------------------------------------

type discardSink struct{}

func (discardSink) WriteRecord([]byte) error { return nil }

// recordStreamSeal is one 16 KB record through the record engine's
// software path. No workload runs the record engine yet (RecordMode is
// software in all four), so no end-to-end metric moves with it.
func recordStreamSeal() (probeBody, func(), error) {
	e := record.New(record.Config{})
	s, err := e.NewStream(minitls.KeyMaterial{
		Version: minitls.VersionTLS12,
		Suite:   suite[0],
		Key:     bytes.Repeat([]byte{0x11}, 16),
		MACKey:  bytes.Repeat([]byte{0x22}, 20),
		Seq:     7,
	}, discardSink{})
	if err != nil {
		return nil, nil, err
	}
	payload := bytes.Repeat([]byte{'b'}, minitls.MaxPlaintext)
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if err := s.Write(payload); err != nil {
				return err
			}
		}
		return nil
	}, nil, nil
}

// --- netpoll over loopback ---------------------------------------------------

// netpollConnCycle is the listen side of one short connection: accept,
// register, wait readable, read 64 bytes, write 64 bytes, unregister,
// close. The client is a blocking net.Conn on this goroutine, so its
// connect, write, read and close are inside the figure too.
func netpollConnCycle() (probeBody, func(), error) {
	l, err := netpoll.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	poller, err := netpoll.NewPoller()
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	cleanup := func() { poller.Close(); l.Close() }
	if err := poller.Add(l.FD(), true, false); err != nil {
		cleanup()
		return nil, nil, err
	}
	msg := make([]byte, 64)
	buf := make([]byte, 64)
	waitFor := func(fd int) error {
		for {
			evs, err := poller.Wait(1000)
			if err != nil {
				return err
			}
			for _, ev := range evs {
				if ev.FD == fd && ev.Readable {
					return nil
				}
			}
		}
	}
	cycle := func() error {
		cli, err := net.Dial("tcp4", l.Addr())
		if err != nil {
			return err
		}
		defer cli.Close()
		if _, err := cli.Write(msg); err != nil {
			return err
		}
		if err := waitFor(l.FD()); err != nil {
			return err
		}
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		defer nc.Close()
		if err := poller.Add(nc.FD(), true, false); err != nil {
			return err
		}
		for got := 0; got < len(msg); {
			if err := waitFor(nc.FD()); err != nil {
				return err
			}
			k, err := nc.Read(buf[got:])
			if err != nil && !errors.Is(err, netpoll.ErrWouldBlock) {
				return err
			}
			got += k
		}
		if _, err := nc.Write(buf); err != nil {
			return err
		}
		if err := poller.Del(nc.FD()); err != nil {
			return err
		}
		nc.Close()
		_, err = io.ReadFull(cli, buf)
		return err
	}
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if err := cycle(); err != nil {
				return err
			}
		}
		return nil
	}, cleanup, nil
}

// netpollWaitReady is one epoll_wait that finds one descriptor ready.
func netpollWaitReady() (probeBody, func(), error) {
	poller, err := netpoll.NewPoller()
	if err != nil {
		return nil, nil, err
	}
	pipe, err := netpoll.NewNotifyPipe()
	if err != nil {
		poller.Close()
		return nil, nil, err
	}
	cleanup := func() { pipe.Close(); poller.Close() }
	if err := poller.Add(pipe.ReadFD(), true, false); err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := pipe.Notify(); err != nil { // never drained: level-triggered, so always ready
		cleanup()
		return nil, nil, err
	}
	return func(n int, m *meter) error {
		m.start()
		defer m.stop()
		for i := 0; i < n; i++ {
			if evs, err := poller.Wait(0); err != nil || len(evs) != 1 {
				return fmt.Errorf("wait: %d events, %v", len(evs), err)
			}
		}
		return nil
	}, cleanup, nil
}
