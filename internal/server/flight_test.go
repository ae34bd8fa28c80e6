//go:build linux

package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/flight"
	"qtls/internal/loadgen"
	"qtls/internal/metrics"
	"qtls/internal/minitls"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// dumpCollector is a race-safe dump sink for end-to-end tests.
type dumpCollector struct {
	mu      sync.Mutex
	reasons []string
	events  [][]flight.Event
}

func (d *dumpCollector) sink(reason string, events []flight.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reasons = append(d.reasons, reason)
	d.events = append(d.events, append([]flight.Event(nil), events...))
}

func (d *dumpCollector) snapshot() ([]string, [][]flight.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.reasons...), d.events
}

// startFlightServer builds a server with tracing and the flight recorder
// enabled, returning the recorder and the dump collector.
func startFlightServer(t *testing.T, run RunConfig, workers int, pool *qat.Pool, cfg flight.Config) (*Server, *flight.Recorder, *dumpCollector) {
	t.Helper()
	rec := trace.NewRecorder(1024)
	rec.SetEnabled(true)
	fr := flight.New(cfg)
	col := &dumpCollector{}
	fr.SetDumpSink(col.sink)
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
		Metrics: metrics.NewRegistry(),
		Trace:   rec,
		Flight:  fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, fr, col
}

// The acceptance scenario end to end: a stalled RSA engine trips the
// instance breaker, the transition lands in the black-box journal, and
// the anomaly trigger emits a dump whose events include the faulted
// spans — while the same black box is also readable on demand through
// GET /debug/flight as JSON lines.
func TestFlightBreakerOpenDumpEndToEnd(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		// The ops that do complete take 2 ms on the device, so their
		// retrieve spans sit above the 1 ms slow floor by construction.
		// (They used to get there by accident: the loop slept 1 ms per
		// iteration while an op deadline was armed.)
		ServiceTime: map[qat.OpType]time.Duration{qat.OpECDH: 2 * time.Millisecond},
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
	run.Lifecycle = true
	// The 30 s dump cooldown outlasts the test: exactly one anomaly dump.
	srv, fr, col := startFlightServer(t, run, 1, qat.PoolOf(dev), flight.Config{})

	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       600 * time.Millisecond,
		RequestPath:    "/1024",
		MaxConnections: 32,
	})
	if res.Connections == 0 || res.Errors > 0 {
		t.Fatalf("load failed under stalled engine: %s", res)
	}

	// Trigger path 1: the breaker-open anomaly dump fired on its own.
	if !waitUntil(t, 2*time.Second, func() bool { reasons, _ := col.snapshot(); return len(reasons) >= 1 }) {
		t.Fatalf("no anomaly dump; journal: %+v", fr.Events(0))
	}
	reasons, dumps := col.snapshot()
	if len(reasons) == 0 || reasons[0] != "breaker-open" {
		t.Fatalf("dump reasons = %v, want breaker-open first", reasons)
	}
	kinds := map[flight.Kind]int{}
	var sawOpen bool
	for _, e := range dumps[0] {
		kinds[e.Kind]++
		if e.Kind == flight.KindBreaker && e.Code == uint8(qat.BreakerOpen) {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatalf("dump has no breaker-open transition: %v", kinds)
	}
	if kinds[flight.KindFault] == 0 {
		t.Fatalf("dump has no injected-fault events: %v", kinds)
	}
	// The slow spans from the stalled ops land in the journal as their
	// timeouts settle; the breaker-open dump can legitimately race ahead
	// of the first one, so wait on the journal itself.
	if !waitUntil(t, 2*time.Second, func() bool {
		for _, e := range fr.Events(0) {
			if e.Kind == flight.KindSlowSpan {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("journal has no slow spans above the %v floor", time.Millisecond)
	}

	// Trigger path 2: the same black box over GET /debug/flight, as
	// parseable JSON lines with the windowed header.
	body := fetchPath(t, srv.Addr(), "/debug/flight?n=512")
	d, err := flight.ReadDump(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/debug/flight not parseable: %v\n%s", err, body)
	}
	if d.Header.Reason != "manual" {
		t.Fatalf("dump header = %+v, want reason=manual", d.Header)
	}
	if len(d.Events) == 0 {
		t.Fatal("/debug/flight returned no events")
	}
	var endpointOpen, endpointFault bool
	for _, e := range d.Events {
		if e.Kind == "breaker" && e.Code == "open" {
			endpointOpen = true
		}
		if e.Kind == "fault" && e.Code == "stall" {
			endpointFault = true
		}
	}
	if !endpointOpen || !endpointFault {
		t.Fatalf("endpoint dump missing breaker-open (%v) or stall fault (%v):\n%s",
			endpointOpen, endpointFault, body)
	}

	// The windowed signal plane is live on /metrics alongside the
	// lifetime series, under the _w60s suffix.
	page := fetchPath(t, srv.Addr(), "/metrics")
	for _, want := range []string{
		"# TYPE qtls_phase_ns_w60s summary",
		`qtls_phase_ns_w60s{phase="retrieve",quantile="0.99"}`,
		"# TYPE qtls_fault_w60s_count gauge",
		"qtls_flight_events_total",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
	if v := metricValue(t, page, `qtls_phase_ns_w60s_count{phase="retrieve"}`); v <= 0 {
		t.Fatalf("windowed retrieve count = %v, want > 0", v)
	}
}

// /debug/flight scraped concurrently while handshake load runs and
// manual dumps fire: under -race this is the journal seqlock's
// reader/writer race test at the system level.
func TestFlightScrapeAndDumpUnderLoad(t *testing.T) {
	// Every ECDH takes 2 ms on the device, so every handshake's retrieve
	// span sits above the 1 ms slow floor: the journals keep taking
	// slow-span writes while the scrapes read them.
	dev := qat.NewDevice(qat.DeviceSpec{
		Endpoints:          3,
		EnginesPerEndpoint: 4,
		RingCapacity:       128,
		ServiceTime:        map[qat.OpType]time.Duration{qat.OpECDH: 2 * time.Millisecond},
	})
	t.Cleanup(dev.Close)
	srv, fr, col := startFlightServer(t, ConfigQTLS, 2, qat.PoolOf(dev), flight.Config{})
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
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				body, err := tryFetchPath(srv.Addr(), "/debug/flight?n=128")
				if err != nil {
					continue // transient connect races with load churn
				}
				if _, err := flight.ReadDump(strings.NewReader(body)); err != nil {
					t.Errorf("scrape %d not parseable: %v", j, err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			fr.Trigger("manual")
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(stop)
	loadWG.Wait()
	if reasons, _ := col.snapshot(); len(reasons) < 10 {
		t.Fatalf("manual triggers produced %d dumps, want >= 10", len(reasons))
	}
	slow := 0
	for _, e := range fr.Events(0) {
		if e.Kind == flight.KindSlowSpan {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("no slow spans journaled: the load put no pressure on the journal writers")
	}
}

// Without a flight recorder the endpoint 404s like /debug/trace does
// without a tracer.
func TestDebugFlightWithoutRecorder(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 1, nil)
	if body := fetchPath(t, srv.Addr(), "/debug/flight"); !strings.Contains(body, "not found") {
		t.Fatalf("/debug/flight without recorder = %q, want 404 body", body)
	}
}

// A flight recorder without a span recorder would keep its phase windows
// at zero and its SLO trigger dead: New refuses it by name.
func TestFlightRequiresTrace(t *testing.T) {
	_, err := New(Options{
		Addr:    "127.0.0.1:0",
		TLS:     &minitls.Config{Identity: identity(t)},
		Handler: SizedBodyHandler(1 << 10),
		Flight:  flight.New(flight.Config{}),
	})
	if !errors.Is(err, ErrFlightWithoutTrace) {
		t.Fatalf("New(Flight without Trace) = %v, want ErrFlightWithoutTrace", err)
	}
}
