//go:build linux

package server

import (
	"testing"
	"time"

	"qtls/internal/flight"
	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// The adaptive controller end to end: a QTLS server with the controller
// armed serves load, the walked thresholds stay inside the configured
// clamps, and the labeled threshold gauges track the controller.
func TestAdaptivePollEndToEnd(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 128})
	t.Cleanup(dev.Close)
	run := ConfigQTLS
	run.Name = "QTLS/adaptive"
	run.AdaptivePoll = &offload.AdaptiveConfig{
		MinAsym: 4, MaxAsym: 96,
		MinSym: 2, MaxSym: 48,
		Interval:   2 * time.Millisecond,
		MinSamples: 8,
	}
	srv, fr, _ := startFlightServer(t, run, 1, qat.PoolOf(dev), flight.Config{
		Buckets: 8,
		Bucket:  100 * time.Millisecond,
	})
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        8,
		Duration:       600 * time.Millisecond,
		RequestPath:    "/2048",
		MaxConnections: 64,
	})
	if res.Connections == 0 {
		t.Fatalf("no connections completed: %s", res)
	}
	st := srv.Stats()
	if st.Handshakes == 0 || st.HeuristicPolls == 0 {
		t.Fatalf("server stats empty: %+v", st)
	}
	for _, w := range srv.Workers() {
		asym, sym := w.PollThresholds()
		if asym < 4 || asym > 96 || sym < 2 || sym > 48 {
			t.Fatalf("%v: thresholds %d/%d escaped the clamps", w, asym, sym)
		}
	}
	// The retrieve-phase feedback window must have been fed — without it
	// the controller is flying blind and the whole loop is dead wiring.
	// (startFlightServer enables tracing, the feedback's source.)
	if fr.PhaseWindow(0) == nil {
		t.Fatal("no phase windows on the recorder")
	}
	// (A gauge never registered would read 0, outside the clamps.)
	reg := srv.Metrics()
	if v := reg.Gauge(`qtls_poll_threshold{class="asym"}`).Value(); v < 4 || v > 96 {
		t.Fatalf("asym threshold gauge = %d, outside clamps", v)
	}
	if v := reg.Gauge(`qtls_poll_threshold{class="sym"}`).Value(); v < 2 || v > 48 {
		t.Fatalf("sym threshold gauge = %d, outside clamps", v)
	}
}

// Arming the controller without its feedback source is a configuration
// error, not a silent no-op.
func TestAdaptivePollRequiresRecorders(t *testing.T) {
	run := ConfigQTLS
	run.AdaptivePoll = &offload.AdaptiveConfig{}
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 4, RingCapacity: 128})
	t.Cleanup(dev.Close)
	_, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 20),
	})
	if err == nil {
		t.Fatal("New accepted adaptive polling without trace/flight recorders")
	}
}
