//go:build linux

package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// The ISSUE's acceptance scenario: every RSA offload stalls on a sick
// engine, yet full TLS handshakes through the server still complete —
// the worker's deadline scan wakes the paused connection, the engine
// abandons the offload and computes the signature in software.
func TestGracefulDegradationStalledEngine(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		Injector: fault.NewInjector(1, fault.Rule{
			Kind:     fault.Stall,
			Endpoint: fault.AnyEndpoint,
			Op:       int(qat.OpRSA),
			P:        1,
		}),
	})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.OpTimeout = 10 * time.Millisecond
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
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       600 * time.Millisecond,
		RequestPath:    "/1024",
		MaxConnections: 32,
	})
	if res.Connections < 4 {
		t.Fatalf("too few connections with stalled RSA engine: %s", res)
	}
	if res.Errors > 0 {
		t.Fatalf("client errors despite software fallback: %s", res)
	}
	st := srv.Stats()
	if st.Handshakes == 0 || st.Errors > 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if st.DeadlineWakeups == 0 {
		t.Fatalf("worker deadline scan never fired: %+v", st)
	}
	snap := reg.Snapshot()
	if snap["qat_faults_injected"] == 0 {
		t.Fatalf("injector fired no faults: %v", snap)
	}
	if snap["qat_op_timeouts"] == 0 {
		t.Fatalf("no op timeouts recorded: %v", snap)
	}
	if snap["qat_sw_fallbacks"] == 0 {
		t.Fatalf("no software fallbacks recorded: %v", snap)
	}
	// Non-RSA ops still reached the device: degradation, not abandonment.
	offloaded := uint64(0)
	for _, c := range dev.Counters() {
		offloaded += c.TotalResponses()
	}
	if offloaded == 0 {
		t.Fatal("no op completed on the device; expected only RSA to degrade")
	}
}

// Without an injector the whole degradation apparatus is inert: the
// counters exist (registered up front for stub_status) but stay zero.
func TestNilInjectorFaultCountersZero(t *testing.T) {
	run := ConfigQTLS
	run.OpTimeout = 250 * time.Millisecond // generous: must never fire
	run.MaxRetries = 2
	srv, _ := startServer(t, run, 1, nil)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       300 * time.Millisecond,
		RequestPath:    "/512",
		MaxConnections: 24,
	})
	if res.Connections == 0 {
		t.Fatalf("no connections: %s", res)
	}
	snap := srv.Metrics().Snapshot()
	names := []string{"qat_faults_injected"}
	for _, c := range engineCounters {
		names = append(names, c.name)
	}
	for _, name := range names {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("counter %s not registered: %v", name, snap)
		}
		if v != 0 {
			t.Fatalf("counter %s = %d with nil injector: %v", name, v, snap)
		}
	}
}

// /stub_status reports worker activity, the fault counters and
// per-instance health over the TLS connection itself.
func TestStubStatusEndpoint(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, nil)
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
	req := "GET /stub_status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	if _, err := tc.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(readerFor(tc))
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("status = %q", status)
	}
	cl := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(line), "content-length:"); ok {
			cl = atoiOr(strings.TrimSpace(v), -1)
		}
	}
	if cl <= 0 {
		t.Fatal("no content length in stub_status response")
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"Active connections:",
		"handshakes ",
		"qat_faults_injected 0",
		"qat_op_timeouts 0",
		"qat_sw_fallbacks 0",
		"qat_instance_trips 0",
		"qat_retries 0",
		"instance 0 endpoint ",
		"breaker closed",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("stub_status missing %q:\n%s", want, page)
		}
	}
}

// A device that answers every cipher op long after its deadline: the
// worker re-seals each record in software (the closure's second run, into
// a second wire buffer) and the device's own result arrives late and is
// dropped. Responses must come through byte-exact across many records and
// recycled buffers — a late result handed back to the pool, or a buffer
// returned while the socket still read it, would show here as corrupted
// bytes or, under -race, as a race on the buffer.
func TestLateCipherResultDropped(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		Injector: fault.NewInjector(1, fault.Rule{
			Kind:     fault.Latency,
			Endpoint: fault.AnyEndpoint,
			Op:       int(qat.OpCipher),
			P:        1,
			Latency:  20 * time.Millisecond,
		}),
	})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.OpTimeout = 2 * time.Millisecond
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
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(readerFor(tc))
	const size = 100000 // 7 records per response
	want, _ := SizedBodyHandler(size)("/100000")
	for i := 0; i < 6; i++ {
		if _, err := tc.Write([]byte("GET /100000 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if line == "\r\n" {
				break
			}
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("response %d corrupted", i)
		}
	}
	snap := reg.Snapshot()
	if snap["qat_op_timeouts"] < 6*7 || snap["qat_sw_fallbacks"] < 6*7 {
		t.Fatalf("cipher ops did not time out and fall back: %v", snap)
	}
	if st := srv.Stats(); st.Errors > 0 {
		t.Fatalf("server errors: %+v", st)
	}
}
