//go:build linux

package server

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// lcReadResponse reads one HTTP response (headers + body) off a buffered
// TLS reader.
func lcReadResponse(t *testing.T, br *bufio.Reader) {
	t.Helper()
	cl := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
			cl = atoiOr(strings.TrimSpace(v), -1)
		}
	}
	if cl < 0 {
		t.Fatal("response without Content-Length")
	}
	if _, err := io.CopyN(io.Discard, br, int64(cl)); err != nil {
		t.Fatalf("reading body: %v", err)
	}
}

// A client that connects and never speaks is cut by the handshake
// deadline — the accept-time deadline, never refreshed.
func TestHandshakeDeadlineExpiry(t *testing.T) {
	run := ConfigSW
	run.Deadlines = offload.DeadlinePolicy{Handshake: 80 * time.Millisecond, Tick: 10 * time.Millisecond}
	srv, _ := startServer(t, run, 1, nil)

	raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	_, err = raw.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("silent connection not closed")
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server never closed the silent connection: %v", err)
	}
	if elapsed < 50*time.Millisecond {
		t.Fatalf("closed after %v — before the 80ms handshake deadline", elapsed)
	}
	if !waitUntil(t, time.Second, func() bool {
		return srv.Stats().DeadlineExpired[offload.DeadlineHandshake] >= 1
	}) {
		t.Fatalf("no handshake deadline expiry recorded: %+v", srv.Stats())
	}
}

// An idle keepalive connection is closed with a TLS close-notify — an
// orderly server-initiated close, not a cut.
func TestKeepaliveDeadlineClosesGracefully(t *testing.T) {
	run := ConfigSW
	run.Deadlines = offload.DeadlinePolicy{Keepalive: 120 * time.Millisecond, Tick: 10 * time.Millisecond}
	srv, _ := startServer(t, run, 1, nil)

	raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(readerFor(tc))
	if _, err := tc.Write([]byte("GET /64 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	lcReadResponse(t, br)

	// Idle now; the keepalive deadline should close-notify us.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle read = %v, want io.EOF after close-notify", err)
	}
	if !tc.CloseNotifyReceived() {
		t.Fatal("no close-notify before EOF: keepalive expiry was not graceful")
	}
	st := srv.Stats()
	if st.DeadlineExpired[offload.DeadlineKeepalive] < 1 {
		t.Fatalf("no keepalive expiry recorded: %+v", st)
	}
}

// A connection parked on a stalled offload with no op deadline is rescued
// by its lifecycle deadline: the close cancels through the engine, so the
// paused fiber exits and the inflight accounting returns to zero.
func TestHandshakeDeadlineCancelsStalledOffload(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 2,
		RingCapacity:       32,
		Injector: fault.NewInjector(1, fault.Rule{
			Kind:     fault.Stall,
			Endpoint: fault.AnyEndpoint,
			Op:       int(qat.OpRSA),
			P:        1,
		}),
	})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	// No OpTimeout: the connection's handshake deadline is the only rescue.
	run.OpTimeout = 0
	run.Deadlines = offload.DeadlinePolicy{Handshake: 100 * time.Millisecond, Tick: 10 * time.Millisecond}
	reg := metrics.NewRegistry()
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 20),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err == nil {
		t.Fatal("handshake completed against a fully stalled RSA engine with no op deadline")
	}

	eng := srv.Workers()[0].Engine()
	if !waitUntil(t, 2*time.Second, func() bool { return eng.Stats().Cancels >= 1 }) {
		t.Fatalf("engine recorded no cancels: %+v", eng.Stats())
	}
	if !waitUntil(t, 2*time.Second, func() bool { return eng.InflightTotal() == 0 }) {
		t.Fatalf("inflight did not settle after cancel: %d", eng.InflightTotal())
	}
	st := srv.Stats()
	if st.DeadlineExpired[offload.DeadlineHandshake] < 1 {
		t.Fatalf("no handshake expiry recorded: %+v", st)
	}
	if !waitUntil(t, time.Second, func() bool { return reg.Snapshot()["qat_op_cancels"] >= 1 }) {
		t.Fatalf("qat_op_cancels not exported: %v", reg.Snapshot())
	}
}

// The ISSUE's overload acceptance scenario: every RSA offload stalls, so
// in-flight offloads pile up against the ring; admission control sheds
// new connections with a TCP reset while the pressure lasts, keeps the
// admitted connections' latency bounded, and restores full admission
// once the fault clears (the injector's Limit runs out).
func TestOverloadShedsAtAcceptAndRecovers(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 2,
		RingCapacity:       8,
		Injector: fault.NewInjector(1, fault.Rule{
			Kind:     fault.Stall,
			Endpoint: fault.AnyEndpoint,
			Op:       int(qat.OpRSA),
			P:        1,
			Limit:    100, // the fault clears after 100 stalled ops
		}),
	})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.OpTimeout = 40 * time.Millisecond
	run.Overload = offload.OverloadPolicy{
		MaxConns:              -1, // isolate the QAT-pressure signal
		ShedFraction:          0.5,
		KeepaliveShedFraction: -1,
	}
	reg := metrics.NewRegistry()
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 20),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	eng := srv.Workers()[0].Engine()
	engCap := eng.RingCapacity()

	// Sample in-flight pressure for the duration of the overload phase:
	// admission control must keep it at or under the ring capacity.
	var maxInflight atomic.Int64
	sampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-sampler:
				return
			case <-time.After(2 * time.Millisecond):
				if n := int64(eng.InflightTotal()); n > maxInflight.Load() {
					maxInflight.Store(n)
				}
			}
		}
	}()

	// Phase 1: saturating closed-loop load against the stalled device.
	const clients = 24
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:     srv.Addr(),
		Clients:  clients,
		Duration: 600 * time.Millisecond,
	})
	close(sampler)
	<-samplerDone

	if res.Shed == 0 {
		t.Fatalf("no client saw an admission reset under overload: %s", res)
	}
	if res.Connections == 0 {
		t.Fatalf("no connection admitted under overload: %s", res)
	}
	// Each admitted connection runs its handshake ops sequentially, so
	// in-flight offloads are bounded by the admitted conns — which the
	// shed policy caps at the client pool, never letting a retry storm
	// stack past it. (The device frees request-ring slots at pickup, so
	// this can legitimately sit above one ring's capacity.)
	if got := maxInflight.Load(); got > clients {
		t.Fatalf("inflight %d exceeded the admitted-connection bound %d (ring capacity %d)",
			got, clients, engCap)
	}
	// Admitted connections stay bounded: one 40ms op deadline plus
	// software fallback, far under a second even on a loaded host.
	if p99 := time.Duration(res.Latency.P99); p99 > time.Second {
		t.Fatalf("admitted-connection p99 %v not bounded under shedding", p99)
	}
	st := srv.Stats()
	if st.ShedAccepts == 0 {
		t.Fatalf("server recorded no accept sheds: %+v", st)
	}
	if !waitUntil(t, time.Second, func() bool { return reg.Snapshot()["qtls_shed_total"] >= 1 }) {
		t.Fatalf("qtls_shed_total not exported: %v", reg.Snapshot())
	}

	// Phase 2: the injector's limit is exhausted; after the last stalled
	// ops drain, light load must be admitted without a single shed.
	if !waitUntil(t, 2*time.Second, func() bool { return eng.InflightTotal() == 0 }) {
		t.Fatalf("inflight never drained after the fault cleared: %d", eng.InflightTotal())
	}
	res2 := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        3,
		Duration:       300 * time.Millisecond,
		MaxConnections: 30,
	})
	if res2.Shed != 0 {
		t.Fatalf("admission not restored after the fault cleared: %s", res2)
	}
	if res2.Connections < 5 {
		t.Fatalf("too few connections after recovery: %s", res2)
	}
	if res2.Errors != 0 {
		t.Fatalf("errors after recovery: %s", res2)
	}
}

// Keepalive-reuse shedding: past the connection-cap pressure point the
// response carries Connection: close followed by a clean close-notify,
// which the client counts as a clean close, not an error.
func TestKeepaliveShedUnderConnPressure(t *testing.T) {
	run := ConfigSW
	run.Overload = offload.OverloadPolicy{
		MaxConns:              1, // 4*conns >= 3*MaxConns holds for every live conn
		ShedFraction:          -1,
		KeepaliveShedFraction: -1,
	}
	srv, _ := startServer(t, run, 1, nil)

	raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(readerFor(tc))
	if _, err := tc.Write([]byte("GET /64 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	lcReadResponse(t, br)

	// The response was served, but keepalive reuse was refused: the
	// server follows it with a close-notify instead of waiting for the
	// next request.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("post-response read = %v, want io.EOF", err)
	}
	if !tc.CloseNotifyReceived() {
		t.Fatal("keepalive shed closed without a close-notify")
	}
	st := srv.Stats()
	if st.ShedKeepalive == 0 {
		t.Fatalf("no keepalive sheds recorded: %+v", st)
	}
	if st.Requests == 0 {
		t.Fatalf("request not served before the shed: %+v", st)
	}
}
