//go:build linux

package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/offload"
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

	// A conf that sets the static pair exports the values it set.
	run := ConfigQTLS
	run.Poll.AsymThreshold, run.Poll.SymThreshold = 8, 4
	srv, _ = startTracedServer(t, run, 2)
	page = fetchPath(t, srv.Addr(), "/metrics")
	for key, want := range map[string]float64{
		`qtls_poll_threshold{class="asym"}`: 8,
		`qtls_poll_threshold{class="sym"}`:  4,
	} {
		if got := metricValue(t, page, key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
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

// counterValues parses the counter samples of an exposition page (the
// series of families typed counter) into name → value.
func counterValues(t *testing.T, page string) map[string]int64 {
	t.Helper()
	counters := map[string]bool{}
	out := map[string]int64{}
	for _, line := range strings.Split(page, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, _ := strings.Cut(fam, " "); kind == "counter" {
				counters[name] = true
			}
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		family, _, _ := strings.Cut(name, "{")
		if !ok || !counters[family] {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bad counter sample %q", line)
		}
		out[name] = v
	}
	return out
}

// TestScrapeEqualsSource: a scrape reads every counter from the object
// that keeps it, so after a faulted two-worker load /metrics and
// /stub_status equal the sources' own sums — the qtls_* counters the
// workers' Stats, the qat_* degradation counters the engines' Stats and
// qat_faults_injected the injector's total. The server is stopped and the device closed first,
// so no count moves while the bodies render.
func TestScrapeEqualsSource(t *testing.T) {
	inj := fault.NewInjector(3,
		fault.Rule{Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: int(qat.OpRSA), P: 0.3},
		fault.Rule{Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: int(qat.OpPRF), P: 1, Limit: 2},
	)
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 4, RingCapacity: 128, Injector: inj})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.OpTimeout = 10 * time.Millisecond
	run.MaxRetries = 1
	run.Lifecycle = true
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       500 * time.Millisecond,
		RequestPath:    "/40000",
		MaxConnections: 48,
	})
	if res.Connections == 0 {
		t.Fatalf("no load completed: %s", res)
	}
	srv.Stop()
	dev.Close()

	st := srv.Stats()
	want := map[string]int64{
		"qtls_accepted":                 st.Accepted,
		"qtls_handshakes":               st.Handshakes,
		"qtls_resumed":                  st.Resumed,
		"qtls_requests":                 st.Requests,
		"qtls_bytes_out":                st.BytesOut,
		"qtls_async_events":             st.AsyncEvents,
		"qtls_retry_events":             st.RetryEvents,
		`qtls_polls{cause="heuristic"}`: st.HeuristicPolls,
		`qtls_polls{cause="timer"}`:     st.TimerPolls,
		`qtls_polls{cause="failover"}`:  st.FailoverPolls,
		"qtls_deadline_wakeups":         st.DeadlineWakeups,
		"qtls_errors":                   st.Errors,
		"qtls_loop_iters":               st.LoopIters,
		"qtls_parks":                    st.Parks,
		`qtls_park_wakes{by="device"}`:  st.ParkDeviceWakes,
		`qtls_park_wakes{by="socket"}`:  st.ParkSocketWakes,
		`qtls_park_wakes{by="timeout"}`: st.ParkTimeouts,
		"qtls_shed_total":               st.ShedAccepts + st.ShedKeepalive,
		`qtls_sheds{site="accept"}`:     st.ShedAccepts,
		`qtls_sheds{site="keepalive"}`:  st.ShedKeepalive,
		"qat_faults_injected":           inj.TotalInjected(),
		"qtls_closed_conns":             0,
		"qat_op_timeouts":               0,
		"qat_op_cancels":                0,
		"qat_sw_fallbacks":              0,
		"qat_retries":                   0,
		"qat_instance_trips":            0,
	}
	for i, n := range st.DeadlineExpired {
		want[`qtls_deadline_expired{class="`+offload.DeadlineClass(i).String()+`"}`] = n
	}
	for _, w := range srv.Workers() {
		want["qtls_closed_conns"] += w.Stats.ClosedConns.Load()
		es := w.Engine().Stats()
		want["qat_op_timeouts"] += es.Timeouts
		want["qat_op_cancels"] += es.Cancels
		want["qat_sw_fallbacks"] += es.SWFallbacks
		want["qat_retries"] += es.Retries
		want["qat_instance_trips"] += es.Trips
	}
	for _, name := range []string{"qat_faults_injected", "qat_op_timeouts", "qat_sw_fallbacks", "qat_retries"} {
		if want[name] == 0 {
			t.Fatalf("the faulted load left %s at zero; the comparison would prove little: %v", name, want)
		}
	}

	w := srv.Workers()[0]
	status := map[string]int64{}
	for _, line := range strings.Split(string(w.statusBody()), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				status[f[0]] = v
			}
		}
	}
	for page, got := range map[string]map[string]int64{
		"/metrics":     counterValues(t, string(w.metricsBody())),
		"/stub_status": status,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s counters differ from their sources:\n got %v\nwant %v", page, got, want)
		}
	}
}
