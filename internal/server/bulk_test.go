//go:build linux

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// Multi-record responses end to end: every record of a response is sealed
// by minitls on the worker, each seal one cipher op through the engine
// (offloaded under the QAT configurations), and read by a plain client.

// dialTLS opens one handshaken client connection to addr.
func dialTLS(tb testing.TB, addr string, cfg *minitls.Config) *minitls.Conn {
	tb.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { raw.Close() })
	raw.SetDeadline(time.Now().Add(20 * time.Second))
	tc := minitls.ClientConn(raw, cfg)
	if err := tc.Handshake(); err != nil {
		tb.Fatal(err)
	}
	return tc
}

// TestBulkResponseTLS13 serves 1 B, 32 KB and 256 KB responses on one
// keep-alive TLS 1.3 (AES-GCM) connection and checks each byte for byte:
// a response of several records must arrive whole, in order, with its
// header, under the offloaded configurations and in software alike.
func TestBulkResponseTLS13(t *testing.T) {
	for _, run := range []RunConfig{ConfigQTLS, ConfigSW, ConfigQATS} {
		t.Run(run.Name, func(t *testing.T) {
			srv, _ := startServer(t, run, 1, func(cfg *minitls.Config) {
				cfg.CipherSuites = nil
				cfg.MaxVersion = minitls.VersionTLS13
			})
			tc := dialTLS(t, srv.Addr(), &minitls.Config{MaxVersion: minitls.VersionTLS13})
			if v := tc.ConnectionState().Version; v != minitls.VersionTLS13 {
				t.Fatalf("negotiated version %#x, want TLS 1.3", v)
			}
			for _, size := range []int{1, 32 << 10, 256 << 10} {
				path := "/" + strconv.Itoa(size)
				body, _ := SizedBodyHandler(size)(path)
				want := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s", size, body)
				if _, err := tc.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: qtls\r\n\r\n")); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(want))
				if _, err := io.ReadFull(tc, got); err != nil {
					t.Fatalf("%d B response: %v", size, err)
				}
				if !bytes.Equal(got, []byte(want)) {
					t.Fatalf("%d B response differs from the handler's bytes", size)
				}
			}
		})
	}
}

// TestBulkSurvivesCipherResets resets endpoints on record-seal (cipher)
// ops during 32 KB transfers: the engine retries or seals in software, so
// every response still arrives whole, and its counters show the degraded
// path ran.
func TestBulkSurvivesCipherResets(t *testing.T) {
	spec := qat.DeviceSpec{
		Endpoints:          3,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		Injector: fault.NewInjector(7, fault.Rule{
			Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: int(qat.OpCipher), P: 0.2,
		}),
	}
	srv, _ := startServerOn(t, spec, ConfigQTLS, 1, nil)
	res := loadgen.Bulk(loadgen.BulkOptions{
		Addr:        srv.Addr(),
		Clients:     4,
		Sizes:       []int{32 << 10},
		Duration:    3 * time.Second,
		MaxRequests: 60,
	})
	if res.Requests < 30 {
		t.Fatalf("too few requests under cipher resets: %s", res)
	}
	if res.Errors > 0 || res.ShortIO > 0 {
		t.Fatalf("cipher resets broke transfers: %s", res)
	}
	srv.Stop()
	var degraded int64
	for _, w := range srv.Workers() {
		st := w.Engine().Stats()
		degraded += st.Retries + st.SWFallbacks
	}
	if degraded == 0 {
		t.Fatal("no retry or software fallback under cipher resets: the degraded path did not run")
	}
}

// BenchmarkBulkResponse is one keep-alive GET of a 4 KB, 24 KB or 256 KB
// body over loopback from a QTLS worker on a real engine and device (the
// live benchmark's device: 1 endpoint, 2 engines, ring 128). allocs/op
// counts the whole process — server, client and device goroutines;
// devreq/op is the device requests one response costs (one cipher op per
// record). 24 KB is the size that pays for the one-segment first record:
// its last record holds more than a segment, so it costs 3 records, not 2.
func BenchmarkBulkResponse(b *testing.B) {
	spec := qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 128}
	for _, size := range []int{4 << 10, 24 << 10, 256 << 10} {
		b.Run(strconv.Itoa(size>>10)+"KB", func(b *testing.B) {
			srv, dev := startServerOn(b, spec, ConfigQTLS, 1, func(cfg *minitls.Config) {
				cfg.CipherSuites = []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}
			})
			tc := dialTLS(b, srv.Addr(), &minitls.Config{})
			br := bufio.NewReaderSize(tc, 64<<10)
			req := []byte("GET /" + strconv.Itoa(size) + " HTTP/1.1\r\nHost: qtls\r\n\r\n")
			get := func() {
				if _, err := tc.Write(req); err != nil {
					b.Fatal(err)
				}
				n := -1
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						b.Fatal(err)
					}
					if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
						n, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
					}
					if len(line) == 2 { // the blank line ending the header
						break
					}
				}
				if n != size {
					b.Fatalf("Content-Length %d, want %d", n, size)
				}
				if _, err := br.Discard(n); err != nil {
					b.Fatal(err)
				}
			}
			get() // warm the pools
			requests := func() (n uint64) {
				for _, c := range dev.Counters() {
					n += c.TotalRequests()
				}
				return n
			}
			r0 := requests()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
			b.StopTimer()
			b.ReportMetric(float64(requests()-r0)/float64(b.N), "devreq/op")
		})
	}
}
