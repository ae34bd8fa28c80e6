//go:build linux

package server

import (
	"testing"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

func startShardedServer(t *testing.T, placement offload.Placement, devices, workers int) (*Server, *qat.Pool) {
	t.Helper()
	pool := qat.NewPool(devices, qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 4, RingCapacity: 128})
	t.Cleanup(pool.Close)
	run := ConfigQTLS
	run.Placement = placement
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: workers,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    pool,
		Handler: SizedBodyHandler(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, pool
}

// TestShardedResumptionE2E drives a resumption-heavy mix against a
// two-device pool sharded by connection hash: tickets issued by one
// worker resume on whichever worker SO_REUSEPORT hashes the reconnect to,
// because New provisions a shared ticket ring for any multi-device
// placement, even though each worker offloads to a different device.
func TestShardedResumptionE2E(t *testing.T) {
	srv, _ := startShardedServer(t, offload.PlacementConnHash, 2, 2)
	if srv.TicketKeys() == nil {
		t.Fatal("sharded placement did not provision a shared ticket ring")
	}
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       500 * time.Millisecond,
		TLS:            &minitls.Config{RequestTicket: true},
		ResumeFraction: 0.8,
		MaxConnections: 48,
	})
	if res.Connections < 8 {
		t.Fatalf("too few connections: %s", res)
	}
	if res.Errors > 0 {
		t.Fatalf("errors under sharded placement: %s", res)
	}
	if res.Resumed == 0 || res.FullHandshakes() == 0 {
		t.Fatalf("0.8 mix must produce both kinds: %s", res)
	}
	if st := srv.Stats(); st.Resumed == 0 {
		t.Fatalf("server saw no resumptions: %+v", st)
	}
	// Each worker homes on its own device.
	homes := map[int]bool{}
	for _, w := range srv.Workers() {
		homes[w.HomeDevice()] = true
	}
	if len(homes) != 2 {
		t.Fatalf("workers share a home device: %v", homes)
	}
}

// TestConnHashPlacementE2E homes each worker on its hash device: with
// two workers and two devices, both devices serve traffic and resumption
// still crosses workers through the shared ring.
func TestConnHashPlacementE2E(t *testing.T) {
	srv, pool := startShardedServer(t, offload.PlacementConnHash, 2, 2)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        4,
		Duration:       400 * time.Millisecond,
		TLS:            &minitls.Config{RequestTicket: true},
		ResumeFraction: 0.5,
		MaxConnections: 32,
	})
	if res.Connections == 0 || res.Errors > 0 {
		t.Fatalf("bad run: %s", res)
	}
	health := pool.Health()
	if health[0].Instances == 0 || health[1].Instances == 0 {
		t.Fatalf("workers did not home on distinct devices: %+v", health)
	}
	var reqs uint64
	for _, d := range pool.Devices() {
		for _, c := range d.Counters() {
			reqs += c.TotalRequests()
		}
	}
	if reqs == 0 {
		t.Fatal("no requests reached the pool")
	}
}

// TestSinglePlacementLegacyPath pins the parity guarantee: a pool passed
// with the zero Placement behaves exactly like the legacy bare Device:
// everything allocates on device 0.
func TestSinglePlacementLegacyPath(t *testing.T) {
	srv, pool := startShardedServer(t, offload.PlacementSingle, 2, 2)
	res := loadgen.STime(loadgen.STimeOptions{
		Addr:           srv.Addr(),
		Clients:        2,
		Duration:       300 * time.Millisecond,
		MaxConnections: 16,
	})
	if res.Connections == 0 || res.Errors > 0 {
		t.Fatalf("bad run: %s", res)
	}
	if srv.TicketKeys() != nil {
		t.Fatal("single placement must not auto-provision a ticket ring")
	}
	health := pool.Health()
	if health[0].Instances == 0 {
		t.Fatalf("no instances on device 0: %+v", health)
	}
	if health[1].Instances != 0 {
		t.Fatalf("single placement leaked instances onto device 1: %+v", health)
	}
}
