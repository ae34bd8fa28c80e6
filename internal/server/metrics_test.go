//go:build linux

package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// startTracedServer is startServer plus an enabled span recorder.
func startTracedServer(t *testing.T, run RunConfig, workers int) (*Server, *trace.Recorder) {
	t.Helper()
	var dev *qat.Device
	var pool *qat.Pool
	if run.UseQAT {
		dev = qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 128})
		t.Cleanup(dev.Close)
		pool = qat.PoolOf(dev)
	}
	rec := trace.NewRecorder(1024)
	rec.SetEnabled(true)
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    pool,
		Handler: SizedBodyHandler(4 << 20),
		Trace:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, rec
}

// fetchPath performs one TLS GET against the server and returns the
// response body (failing the test on any protocol error).
func fetchPath(t *testing.T, addr, path string) string {
	t.Helper()
	body, err := tryFetchPath(addr, path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return body
}

func tryFetchPath(addr, path string) (string, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		return "", err
	}
	req := "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
	if _, err := tc.Write([]byte(req)); err != nil {
		return "", err
	}
	br := bufio.NewReader(readerFor(tc))
	if _, err := br.ReadString('\n'); err != nil {
		return "", err
	}
	cl := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", err
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
		return "", io.ErrUnexpectedEOF
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(br, body); err != nil {
		return "", err
	}
	return string(body), nil
}

// TestMetricsEndpoint drives real handshakes through the QTLS
// configuration and asserts the /metrics exposition carries non-zero
// histograms for all four offload phases (the paper's §3.2 breakdown)
// plus the event-loop gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := startTracedServer(t, ConfigQTLS, 2)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        8,
		Duration:       400 * time.Millisecond,
		RequestPath:    "/2048",
		MaxConnections: 64,
	})
	if res.Connections == 0 {
		t.Fatalf("no load completed: %s", res)
	}
	page := fetchPath(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		"# TYPE qtls_phase_ns summary",
		"# TYPE qtls_handshakes counter",
		"# TYPE qtls_inflight gauge",
		"# TYPE qat_sw_fallbacks counter",
		`qtls_poll_threshold{class="asym"} 48`,
		`qtls_poll_threshold{class="sym"} 24`,
		`qtls_jobs_started `,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
	for _, ph := range trace.OffloadPhases() {
		base := `qtls_phase_ns_count{phase="` + ph.String() + `"}`
		count := metricValue(t, page, base)
		if count <= 0 {
			t.Errorf("phase %s histogram empty:\n%s", ph, page)
		}
	}
	if hs := metricValue(t, page, "qtls_handshakes"); hs <= 0 {
		t.Errorf("qtls_handshakes = %v", hs)
	}
}

// metricValue extracts the numeric value of an exposition line whose
// series name (including labels) equals key.
func metricValue(t *testing.T, page, key string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != key {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("bad value for %s: %q", key, val)
		}
		return f
	}
	t.Fatalf("series %s not found:\n%s", key, page)
	return 0
}

// TestDebugTraceEndpoint asserts /debug/trace serves recent spans as
// JSON with all four offload phases present after live handshakes.
func TestDebugTraceEndpoint(t *testing.T) {
	srv, rec := startTracedServer(t, ConfigQTLS, 1)
	loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       300 * time.Millisecond,
		RequestPath:    "/1024",
		MaxConnections: 32,
	})
	if rec.Count() == 0 {
		t.Fatal("recorder captured no spans during live load")
	}
	page := fetchPath(t, srv.Addr(), "/debug/trace?n=2000")
	var spans []map[string]any
	if err := json.Unmarshal([]byte(page), &spans); err != nil {
		t.Fatalf("trace dump is not JSON: %v\n%s", err, page)
	}
	if len(spans) == 0 {
		t.Fatal("trace dump empty")
	}
	phases := map[string]bool{}
	for _, s := range spans {
		ph, _ := s["phase"].(string)
		phases[ph] = true
		if dur, ok := s["dur_ns"].(float64); !ok || dur < 0 {
			t.Fatalf("span without duration: %v", s)
		}
	}
	for _, ph := range trace.OffloadPhases() {
		if !phases[ph.String()] {
			t.Errorf("no %s span in dump (saw %v)", ph, phases)
		}
	}
}

// TestConcurrentMetricsAndStatusScrapes hammers /metrics and
// /stub_status from several goroutines while handshake load is in
// flight; run under -race this is the registry/scrape race test.
func TestConcurrentMetricsAndStatusScrapes(t *testing.T) {
	srv, _ := startTracedServer(t, ConfigQTLS, 2)
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			loadgen.STime(loadgen.STimeOptions{
				Addr:           srv.Addr(),
				Clients:        4,
				Duration:       150 * time.Millisecond,
				RequestPath:    "/1024",
				MaxConnections: 32,
			})
		}
	}()
	var scrapeWG sync.WaitGroup
	for _, path := range []string{"/metrics", "/stub_status", "/metrics", "/debug/trace?n=64"} {
		path := path
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for i := 0; i < 5; i++ {
				if body, err := tryFetchPath(srv.Addr(), path); err == nil && body == "" {
					t.Errorf("%s returned empty body", path)
				}
			}
		}()
	}
	scrapeWG.Wait()
	close(stop)
	loadWG.Wait()
	page := fetchPath(t, srv.Addr(), "/metrics")
	if !strings.Contains(page, "qtls_phase_ns") {
		t.Fatalf("scrape after load missing phase series:\n%s", page)
	}
}
