//go:build linux

package server

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

var (
	idOnce sync.Once
	rsaID  *minitls.Identity
)

func identity(t testing.TB) *minitls.Identity {
	t.Helper()
	idOnce.Do(func() {
		var err error
		rsaID, err = minitls.NewRSAIdentity(2048)
		if err != nil {
			panic(err)
		}
	})
	return rsaID
}

func startServer(t *testing.T, run RunConfig, workers int, tlsExtra func(*minitls.Config)) (*Server, *qat.Device) {
	t.Helper()
	return startServerOn(t, qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 128}, run, workers, tlsExtra)
}

// startServerOn is startServer on a device built from spec (none when run
// uses no QAT).
func startServerOn(tb testing.TB, spec qat.DeviceSpec, run RunConfig, workers int, tlsExtra func(*minitls.Config)) (*Server, *qat.Device) {
	tb.Helper()
	var dev *qat.Device
	var pool *qat.Pool
	if run.UseQAT {
		dev = qat.NewDevice(spec)
		tb.Cleanup(dev.Close)
		pool = qat.PoolOf(dev)
	}
	tlsCfg := &minitls.Config{
		Identity:     identity(tb),
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
		tb.Fatal(err)
	}
	srv.Start()
	tb.Cleanup(srv.Stop)
	return srv, dev
}

// Every configuration serves full handshakes and data end-to-end.
func TestAllConfigurationsServe(t *testing.T) {
	for _, run := range Configurations() {
		run := run
		t.Run(run.Name, func(t *testing.T) {
			srv, dev := startServer(t, run, 2, nil)
			res := loadgen.STime(loadgen.STimeOptions{
				Addr:           srv.Addr(),
				Clients:        8,
				Duration:       400 * time.Millisecond,
				RequestPath:    "/2048",
				MaxConnections: 64,
			})
			if res.Connections == 0 {
				t.Fatalf("%s: no connections completed: %s", run.Name, res)
			}
			if res.Errors > res.Connections/4 {
				t.Fatalf("%s: too many errors: %s", run.Name, res)
			}
			st := srv.Stats()
			if st.Handshakes == 0 || st.Requests == 0 {
				t.Fatalf("%s: server stats empty: %+v", run.Name, st)
			}
			if run.UseQAT {
				total := uint64(0)
				for _, c := range dev.Counters() {
					total += c.TotalRequests()
				}
				if total == 0 {
					t.Fatalf("%s: no requests reached the QAT device", run.Name)
				}
				// One way onto a ring: the handshake engine submits each
				// request by itself as its operation pauses (§3.2).
				for _, w := range srv.Workers() {
					for _, inst := range w.Engine().Instances() {
						if is := inst.Stats(); is.SubmitBatches != 0 {
							t.Fatalf("%s: handshake engine used SubmitBatch: %+v", run.Name, is)
						}
					}
				}
			}
		})
	}
}

// The async configurations deliver async events; QTLS uses the
// kernel-bypass queue, QAT+A/AH the FD pipe.
func TestNotificationSchemesExercised(t *testing.T) {
	for _, run := range []RunConfig{ConfigQATA, ConfigQATAH, ConfigQTLS} {
		run := run
		t.Run(run.Name, func(t *testing.T) {
			srv, _ := startServer(t, run, 1, nil)
			res := loadgen.STime(loadgen.STimeOptions{
				Addr:           srv.Addr(),
				Clients:        4,
				Duration:       300 * time.Millisecond,
				MaxConnections: 32,
			})
			if res.Connections == 0 {
				t.Fatalf("no connections: %s", res)
			}
			st := srv.Stats()
			if st.AsyncEvents == 0 {
				t.Fatalf("%s: no async events delivered: %+v", run.Name, st)
			}
			// ECDHE-RSA: ECDH keygen + RSA sign + ECDH derive + 4 PRF = 7
			// async events per full handshake.
			if st.AsyncEvents < st.Handshakes*7 {
				t.Fatalf("%s: async events %d < 7×handshakes %d", run.Name, st.AsyncEvents, st.Handshakes)
			}
		})
	}
}

// Heuristic polling fires for the heuristic configurations only.
func TestHeuristicPollingCounters(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, nil)
	loadgen.STime(loadgen.STimeOptions{
		Addr: srv.Addr(), Clients: 8, Duration: 300 * time.Millisecond, MaxConnections: 48,
	})
	st := srv.Stats()
	if st.HeuristicPolls == 0 {
		t.Fatalf("no heuristic polls: %+v", st)
	}
	if st.TimerPolls != 0 {
		t.Fatalf("timer polls in heuristic config: %+v", st)
	}

	srvA, _ := startServer(t, ConfigQATA, 1, nil)
	loadgen.STime(loadgen.STimeOptions{
		Addr: srvA.Addr(), Clients: 4, Duration: 200 * time.Millisecond, MaxConnections: 16,
	})
	stA := srvA.Stats()
	if stA.TimerPolls == 0 {
		t.Fatalf("no timer polls in QAT+A: %+v", stA)
	}
	if stA.HeuristicPolls != 0 {
		t.Fatalf("heuristic polls in timer config: %+v", stA)
	}
}

// Session resumption through the full server stack (the §5.3 workload).
func TestServerSessionResumption(t *testing.T) {
	cache := minitls.NewSessionCache(256)
	srv, _ := startServer(t, ConfigQTLS, 1, func(c *minitls.Config) {
		c.SessionCache = cache
	})
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       400 * time.Millisecond,
		ResumeFraction: 1.0,
		MaxConnections: 40,
	})
	if res.Connections < 8 {
		t.Fatalf("too few connections: %s", res)
	}
	if res.Resumed == 0 {
		t.Fatalf("no resumed connections: %s", res)
	}
	st := srv.Stats()
	if st.Resumed == 0 {
		t.Fatalf("server saw no resumptions: %+v", st)
	}
}

// Large responses exercise async cipher offload through the worker write
// path (the Fig. 10 workload shape).
func TestLargeTransferThroughWorker(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, nil)
	res := loadgen.AB(loadgen.ABOptions{
		Addr:        srv.Addr(),
		Clients:     4,
		Duration:    500 * time.Millisecond,
		Path:        "/131072", // 128 KB → 8 records per response
		MaxRequests: 24,
	})
	if res.Requests == 0 {
		t.Fatalf("no requests: %s", res)
	}
	if res.BytesIn < int64(res.Requests)*131072 {
		t.Fatalf("short responses: %s", res)
	}
	if res.Errors > 0 {
		t.Fatalf("errors: %s", res)
	}
}

// Multiple workers share the port and the QAT device's endpoints.
func TestMultiWorkerBalancing(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 4, nil)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        8,
		Duration:       800 * time.Millisecond,
		MaxConnections: 120,
	})
	// Absolute counts are host-dependent (CI may pin this to one core);
	// what matters is that connections complete and spread across workers.
	if res.Connections < 10 {
		t.Fatalf("too few connections: %s", res)
	}
	busy := 0
	for _, w := range srv.Workers() {
		if w.Stats.Handshakes.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d/4 workers handled connections", busy)
	}
	// Instances were distributed across the 3 endpoints.
	endpoints := map[int]bool{}
	for _, w := range srv.Workers() {
		if w.Engine() != nil {
			endpoints[w.id%3] = true
		}
	}
	if len(endpoints) < 2 {
		t.Fatal("instances not distributed across endpoints")
	}
}

// TLS 1.3 through the full event-driven stack.
func TestServerTLS13(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, func(c *minitls.Config) {
		c.MaxVersion = minitls.VersionTLS13
		c.CipherSuites = nil
	})
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       300 * time.Millisecond,
		TLS:            &minitls.Config{MaxVersion: minitls.VersionTLS13},
		RequestPath:    "/512",
		MaxConnections: 24,
	})
	if res.Connections == 0 || res.Errors > 0 {
		t.Fatalf("TLS 1.3 run failed: %s", res)
	}
}

// Keepalive: one connection, many requests (idle/active transitions feed
// TCactive).
func TestKeepaliveRequests(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, nil)
	res := loadgen.AB(loadgen.ABOptions{
		Addr:        srv.Addr(),
		Clients:     1,
		Duration:    400 * time.Millisecond,
		Path:        "/100",
		MaxRequests: 20,
	})
	if res.Requests < 5 {
		t.Fatalf("too few keepalive requests: %s", res)
	}
	if res.Connections != 1 {
		t.Fatalf("connections = %d, want 1 keepalive conn", res.Connections)
	}
	st := srv.Stats()
	if st.Requests < 5 || st.Handshakes != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

// 404 handling.
func TestNotFound(t *testing.T) {
	srv, _ := startServer(t, ConfigSW, 1, nil)
	res := loadgen.AB(loadgen.ABOptions{
		Addr:        srv.Addr(),
		Clients:     1,
		Duration:    200 * time.Millisecond,
		Path:        "/nope",
		MaxRequests: 1,
	})
	if res.Requests != 1 {
		t.Fatalf("request not served: %s", res)
	}
}

// Ring-full pressure: a tiny ring with many concurrent handshakes forces
// submission retries, which must all recover.
func TestRingFullRecovery(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 2,
		RingCapacity:       2,
		ServiceTime:        map[qat.OpType]time.Duration{qat.OpRSA: 500 * time.Microsecond},
	})
	t.Cleanup(dev.Close)
	tlsCfg := &minitls.Config{
		Identity:     identity(t),
		CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
	}
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     ConfigQTLS,
		TLS:     tlsCfg,
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
		Clients:        12,
		Duration:       600 * time.Millisecond,
		MaxConnections: 60,
	})
	if res.Connections < 12 {
		t.Fatalf("too few connections under ring pressure: %s", res)
	}
	st := srv.Stats()
	if st.Errors > 0 {
		t.Fatalf("server errors under ring pressure: %+v", st)
	}
	t.Logf("retry events: %d (ring pressure %s)", st.RetryEvents, res)
}

func TestSizedBodyHandler(t *testing.T) {
	h := SizedBodyHandler(1024)
	body, ok := h("/100")
	if !ok || len(body) != 100 {
		t.Fatalf("h(/100) = %d, %v", len(body), ok)
	}
	if _, ok := h("/2048"); ok {
		t.Fatal("oversized request allowed")
	}
	for _, path := range []string{"/abc", "/12x", "/-1", "/", "", "12"} {
		if _, ok := h(path); ok {
			t.Fatalf("malformed path %q allowed", path)
		}
	}
	b2, _ := h("/100")
	if &body[0] != &b2[0] {
		t.Fatal("body not cached")
	}
}

// checkSizedBody fails unless body is the n-byte prefix of the
// 'a'+i%26 pattern.
func checkSizedBody(t *testing.T, body []byte, n int) {
	t.Helper()
	if len(body) != n {
		t.Fatalf("len = %d, want %d", len(body), n)
	}
	for i, b := range body {
		if b != byte('a'+i%26) {
			t.Fatalf("size %d: byte %d = %q, want %q", n, i, b, 'a'+i%26)
		}
	}
}

// The handler takes its size from the network, so no size may cost
// memory past construction: serving a fresh size every call allocates
// nothing, and every body is the pattern.
func TestSizedBodyHandlerAllocations(t *testing.T) {
	const maxSize, perRun, runs = 1 << 16, 16, 100
	h := SizedBodyHandler(maxSize)
	paths := make([]string, (runs+1)*perRun) // AllocsPerRun adds a warm-up run
	for i := range paths {
		paths[i] = "/" + strconv.Itoa(i*(maxSize/len(paths)))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for range perRun {
			if _, ok := h(paths[next]); !ok {
				t.Fatalf("%s refused", paths[next])
			}
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("serving %d distinct sizes allocates %v objects per %d, want 0", len(paths), allocs, perRun)
	}
	for _, n := range []int{0, 1, 25, 26, 27, 1000, maxSize} {
		body, ok := h("/" + strconv.Itoa(n))
		if !ok {
			t.Fatalf("/%d refused", n)
		}
		checkSizedBody(t, body, n)
	}
}

// FuzzSizedBodyHandler: a path is served exactly when it is "/" followed
// by what strconv.Atoi accepts in [0, maxSize], and then with n bytes of
// the pattern.
func FuzzSizedBodyHandler(f *testing.F) {
	const maxSize = 1 << 20
	for _, path := range []string{"/1", "/100", "/1024", "/4096", "/65536", "/100000",
		"/262144", "/1048576", "/1048577", "/0", "/-1", "/+5", "/abc", "/12x", "/", "", "12", "//1"} {
		f.Add(path)
	}
	h := SizedBodyHandler(maxSize)
	f.Fuzz(func(t *testing.T, path string) {
		body, ok := h(path)
		n, want := 0, false
		if rest, found := strings.CutPrefix(path, "/"); found {
			var err error
			n, err = strconv.Atoi(rest)
			want = err == nil && n >= 0 && n <= maxSize
		}
		if ok != want {
			t.Fatalf("h(%q) ok = %v, want %v", path, ok, want)
		}
		if ok {
			checkSizedBody(t, body, n)
		}
	})
}

// The five named configurations are the shared offload policies, in
// evaluation order, with no live-stack setting on top: Placement among
// them stays single, the paper's one card. (The scheme names
// themselves are offload's and are tested there.)
func TestConfigStrings(t *testing.T) {
	want := offload.Configurations()
	got := Configurations()
	if len(got) != len(want) {
		t.Fatalf("%d configurations, want the paper's %d", len(got), len(want))
	}
	for i, p := range want {
		if !reflect.DeepEqual(got[i], RunConfig{Policy: p}) {
			t.Errorf("configuration %d = %+v, want exactly policy %+v", i, got[i], p)
		}
	}
}

// TLS 1.3 PSK resumption through the full event-driven stack.
func TestServerTLS13Resumption(t *testing.T) {
	var key [32]byte
	copy(key[:], []byte("server-13-resumption-ticket-key!"))
	srv, _ := startServer(t, ConfigQTLS, 1, func(c *minitls.Config) {
		c.MaxVersion = minitls.VersionTLS13
		c.CipherSuites = nil
		c.TicketKey = &key
	})
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        2,
		Duration:       500 * time.Millisecond,
		TLS:            &minitls.Config{MaxVersion: minitls.VersionTLS13},
		ResumeFraction: 1.0,
		RequestPath:    "/256", // the read consumes the NewSessionTicket
		MaxConnections: 20,
	})
	if res.Connections < 4 {
		t.Fatalf("too few connections: %s", res)
	}
	if res.Resumed == 0 {
		t.Fatalf("no 1.3 resumptions: %s", res)
	}
	st := srv.Stats()
	if st.Resumed == 0 {
		t.Fatalf("server saw no resumptions: %+v", st)
	}
}
