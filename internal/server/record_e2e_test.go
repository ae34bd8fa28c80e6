//go:build linux

package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// End-to-end coverage of the post-handshake record-path offload: a
// plain software client (loadgen/minitls) against servers whose write
// direction runs through the record engine.

func startRecordServer(t *testing.T, run RunConfig, workers int, tlsExtra func(*minitls.Config)) (*Server, *qat.Device) {
	t.Helper()
	var dev *qat.Device
	var pool *qat.Pool
	if run.UseQAT {
		dev = qat.NewDevice(qat.DeviceSpec{
			Endpoints:          3,
			EnginesPerEndpoint: 4,
			RingCapacity:       128,
			SymBaseTime:        20 * time.Microsecond,
			SymPerKB:           2 * time.Microsecond,
		})
		t.Cleanup(dev.Close)
		pool = qat.PoolOf(dev)
	}
	tlsCfg := &minitls.Config{
		Identity:     identity(t),
		CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA, minitls.TLS_RSA_WITH_AES_128_CBC_SHA},
	}
	if tlsExtra != nil {
		tlsExtra(tlsCfg)
	}
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		Run:     run,
		TLS:     tlsCfg,
		Pool:    pool,
		Handler: SizedBodyHandler(4 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, dev
}

// TestRecordPathBulkTransfer moves bulk data through the offloaded
// record path in every mode and verifies byte-exact delivery to a
// software client, plus the op counters splitting as the policy says.
func TestRecordPathBulkTransfer(t *testing.T) {
	cases := []struct {
		name        string
		mode        offload.RecordMode
		wantOffload bool
		wantSW      bool
	}{
		{"offload", offload.RecordOffload, true, false},
		{"adaptive", offload.RecordAdaptive, true, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := ConfigQTLS
			run.Record.Mode = tc.mode
			srv, _ := startRecordServer(t, run, 2, nil)
			res := loadgen.Bulk(loadgen.BulkOptions{
				Addr:    srv.Addr(),
				Clients: 4,
				// 1 KB falls below the adaptive threshold, 64 KB above.
				Sizes:       []int{1024, 64 << 10},
				Duration:    2 * time.Second,
				MaxRequests: 40,
			})
			if res.Requests < 20 {
				t.Fatalf("too few bulk requests completed: %s", res)
			}
			if res.Errors > 0 || res.ShortIO > 0 {
				t.Fatalf("bulk transfer failed through record path: %s", res)
			}
			srv.Stop()
			st := srv.RecordStats()
			if st.Records == 0 || st.Bytes == 0 {
				t.Fatalf("record engine saw no traffic: %s", st)
			}
			if tc.wantOffload && st.OffloadOps == 0 {
				t.Fatalf("no offloaded record ops in %s mode: %s", tc.name, st)
			}
			if tc.wantSW && st.SoftwareOps == 0 {
				t.Fatalf("adaptive mode never sealed below threshold: %s", st)
			}
			if !tc.wantSW && st.SoftwareOps > st.OffloadOps {
				// Offload-always mode: software seals only from close-notify
				// alerts and degraded submissions, never the majority.
				t.Fatalf("offload mode mostly sealed in software: %s", st)
			}
			snap := srv.Metrics().Snapshot()
			if snap["qtls_record_bytes"] == 0 {
				t.Fatal("qtls_record_bytes metric not exported")
			}
			if tc.wantOffload && snap["qtls_record_offload_ops"] == 0 {
				t.Fatal("qtls_record_offload_ops metric not exported")
			}
		})
	}
}

// TestRecordPathTLS13 repeats the transfer over TLS 1.3 (GCM codec) —
// both negotiated suites must survive the key export and hand-off.
func TestRecordPathTLS13(t *testing.T) {
	run := ConfigQTLS
	run.Record.Mode = offload.RecordOffload
	srv, _ := startRecordServer(t, run, 1, func(cfg *minitls.Config) {
		cfg.CipherSuites = nil
		cfg.MaxVersion = minitls.VersionTLS13
	})
	res := loadgen.Bulk(loadgen.BulkOptions{
		Addr:        srv.Addr(),
		Clients:     2,
		Sizes:       []int{32 << 10},
		TLS:         &minitls.Config{MaxVersion: minitls.VersionTLS13},
		Duration:    2 * time.Second,
		MaxRequests: 10,
	})
	if res.Requests < 5 || res.Errors > 0 || res.ShortIO > 0 {
		t.Fatalf("TLS 1.3 record path failed: %s", res)
	}
}

// TestRecordPathSoftwareEngine runs the record engine without a QAT
// device (SW configuration + record mode): everything seals on the
// worker core but through the stream machinery, including close-notify.
func TestRecordPathSoftwareEngine(t *testing.T) {
	run := ConfigSW
	run.Record.Mode = offload.RecordOffload // no device → software seals
	srv, _ := startRecordServer(t, run, 1, nil)
	res := loadgen.Bulk(loadgen.BulkOptions{
		Addr:        srv.Addr(),
		Clients:     2,
		Sizes:       []int{16 << 10},
		Duration:    time.Second,
		MaxRequests: 8,
	})
	if res.Requests < 4 || res.Errors > 0 || res.ShortIO > 0 {
		t.Fatalf("software record engine failed: %s", res)
	}
	srv.Stop()
	st := srv.RecordStats()
	if st.OffloadOps != 0 || st.SoftwareOps == 0 {
		t.Fatalf("device-less engine should seal all-software: %s", st)
	}
}

// TestRecordPathKeepaliveAndClose drives one connection by hand:
// several keepalive responses through the stream, then Connection:
// close — the close-notify must arrive through the record plane and
// read as an orderly EOF.
func TestRecordPathKeepaliveAndClose(t *testing.T) {
	run := ConfigQTLS
	run.Record.Mode = offload.RecordOffload
	srv, _ := startRecordServer(t, run, 1, nil)

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
	br := bufio.NewReaderSize(tc, 64<<10)
	for i := 0; i < 3; i++ {
		n, err := requestOnce(tc, br, "/8192", false)
		if err != nil {
			t.Fatalf("keepalive request %d: %v", i, err)
		}
		if n != 8192 {
			t.Fatalf("request %d returned %d bytes, want 8192", i, n)
		}
	}
	n, err := requestOnce(tc, br, "/8192", true)
	if err != nil || n != 8192 {
		t.Fatalf("final request: n=%d err=%v", n, err)
	}
	// The server closes after the response: expect close-notify then EOF.
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("expected EOF after Connection: close response")
	}
	if !tc.CloseNotifyReceived() {
		t.Fatal("close-notify did not arrive through the record stream")
	}
}

// TestRecordPathDrainUnderLoad shuts the server down gracefully while
// bulk transfers are in flight: admitted responses complete through the
// record engine, the drain interacts with stream-pending state, and no
// transfer ends in a hard error.
func TestRecordPathDrainUnderLoad(t *testing.T) {
	run := ConfigQTLS
	run.Record.Mode = offload.RecordOffload
	srv, _ := startRecordServer(t, run, 2, nil)

	done := make(chan loadgen.BulkResult, 1)
	go func() {
		done <- loadgen.Bulk(loadgen.BulkOptions{
			Addr:     srv.Addr(),
			Clients:  4,
			Sizes:    []int{64 << 10},
			Duration: 3 * time.Second,
		})
	}()
	time.Sleep(300 * time.Millisecond) // let transfers start
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown timed out with record path active: %v", err)
	}
	res := <-done
	if res.Requests == 0 {
		t.Fatalf("no requests completed before drain: %s", res)
	}
	if res.Errors > res.Requests/4+1 {
		t.Fatalf("drain produced hard errors: %s", res)
	}
}

// TestRecordPathKeepaliveDeadline lets a record-path connection idle
// past the keepalive deadline: the wheel must close it gracefully, with
// the close-notify sealed by the stream (the detached conn cannot).
func TestRecordPathKeepaliveDeadline(t *testing.T) {
	run := ConfigQTLS
	run.Record.Mode = offload.RecordOffload
	run.Deadlines = offload.DeadlinePolicy{
		Keepalive: 300 * time.Millisecond,
		Tick:      20 * time.Millisecond,
	}
	srv, _ := startRecordServer(t, run, 1, nil)

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
	br := bufio.NewReaderSize(tc, 64<<10)
	if n, err := requestOnce(tc, br, "/16384", false); err != nil || n != 16384 {
		t.Fatalf("request: n=%d err=%v", n, err)
	}
	// Idle past the deadline; the server should close-notify us.
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("expected orderly close after keepalive deadline")
	}
	if !tc.CloseNotifyReceived() {
		t.Fatal("keepalive deadline close lacked a record-stream close-notify")
	}
}

// TestRecordPathFaultFallback injects endpoint resets into the device:
// transfers must complete byte-exact via software re-seals, with the
// fallback counters proving the degraded path ran.
func TestRecordPathFaultFallback(t *testing.T) {
	inj := fault.NewInjector(7, fault.Rule{
		Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: int(qat.OpSym),
		P: 0.05,
	})
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          3,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		Injector:           inj,
	})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.Record.Mode = offload.RecordOffload
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Run:     run,
		TLS:     &minitls.Config{Identity: identity(t)},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(4 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	res := loadgen.Bulk(loadgen.BulkOptions{
		Addr:        srv.Addr(),
		Clients:     4,
		Sizes:       []int{32 << 10},
		Duration:    3 * time.Second,
		MaxRequests: 60,
	})
	if res.Requests < 30 {
		t.Fatalf("too few requests under fault injection: %s", res)
	}
	if res.Errors > 0 || res.ShortIO > 0 {
		t.Fatalf("device faults corrupted transfers: %s", res)
	}
	srv.Stop()
	if st := srv.RecordStats(); st.Fallbacks == 0 {
		t.Logf("note: no fallbacks triggered this run (injection is probabilistic): %s", st)
	}
}

// requestOnce issues one GET (optionally Connection: close) and reads
// the body fully, returning its length.
func requestOnce(tc *minitls.Conn, br *bufio.Reader, path string, close bool) (int, error) {
	req := "GET " + path + " HTTP/1.1\r\nHost: qtls\r\n"
	if close {
		req += "Connection: close\r\n"
	}
	req += "\r\n"
	if _, err := tc.Write([]byte(req)); err != nil {
		return 0, err
	}
	contentLength := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		line = trimCRLFe2e(line)
		if line == "" {
			break
		}
		if v, ok := cutFold(line, "content-length:"); ok {
			n := 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					continue
				}
				n = n*10 + int(ch-'0')
			}
			contentLength = n
		}
	}
	if contentLength < 0 {
		return 0, errNoLength
	}
	got := 0
	buf := make([]byte, 32<<10)
	for got < contentLength {
		want := contentLength - got
		if want > len(buf) {
			want = len(buf)
		}
		n, err := br.Read(buf[:want])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

var errNoLength = &net.AddrError{Err: "response without Content-Length", Addr: ""}

func trimCRLFe2e(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

func cutFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) {
		return "", false
	}
	for i := 0; i < len(prefix); i++ {
		a, b := s[i], prefix[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if a != b {
			return "", false
		}
	}
	return s[len(prefix):], true
}
