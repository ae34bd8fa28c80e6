//go:build linux

package server

import (
	"bufio"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"qtls/internal/loadgen"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// drainClient is one established keepalive connection used to observe the
// server's drain behaviour from the outside.
type drainClient struct {
	raw net.Conn
	tc  *minitls.Conn
	br  *bufio.Reader
}

func dialDrainClient(t *testing.T, addr string) *drainClient {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	raw.SetDeadline(time.Now().Add(15 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	c := &drainClient{raw: raw, tc: tc, br: bufio.NewReader(readerFor(tc))}
	if _, err := tc.Write([]byte("GET /128 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	lcReadResponse(t, c.br)
	return c
}

// Shutdown with idle keepalive clients: each gets a close-notify, the
// workers end with zero connections and zero in-flight offloads, and no
// worker goroutines leak.
func TestShutdownDrainsIdleKeepalives(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 128})
	t.Cleanup(dev.Close)
	time.Sleep(20 * time.Millisecond) // device goroutines settle
	base := runtime.NumGoroutine()

	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Run:     ConfigQTLS,
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

	// Three idle keepalive clients plus one silent mid-handshake socket.
	clients := []*drainClient{
		dialDrainClient(t, srv.Addr()),
		dialDrainClient(t, srv.Addr()),
		dialDrainClient(t, srv.Addr()),
	}
	silent, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Idle keepalive clients got an orderly close-notify...
	for i, c := range clients {
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Fatalf("client %d: read = %v, want io.EOF", i, err)
		}
		if !c.tc.CloseNotifyReceived() {
			t.Fatalf("client %d: drained without close-notify", i)
		}
	}
	// ...while the never-handshaked socket was simply cut.
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatal("mid-handshake socket survived the drain")
	}

	for _, w := range srv.Workers() {
		if !w.Draining() {
			t.Fatalf("%s not marked draining", w)
		}
		if n := w.ConnCount(); n != 0 {
			t.Fatalf("%s still holds %d connections", w, n)
		}
		if e := w.Engine(); e != nil && e.InflightTotal() != 0 {
			t.Fatalf("%s: %d offloads still in flight", w, e.InflightTotal())
		}
	}
	// And a new connection is refused: the listeners are gone.
	if c, err := net.DialTimeout("tcp", srv.Addr(), 250*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Shutdown")
	}

	// No leaked worker or fiber goroutines.
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		ok = runtime.NumGoroutine() <= base+2
		if !ok {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !ok {
		t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), base)
	}
}

// Shutdown fired in the middle of a live handshake/request load still
// converges: in-flight work completes or cancels, nothing is left on the
// rings, and the call returns before its context expires.
func TestShutdownUnderLoad(t *testing.T) {
	srv, _ := startServer(t, ConfigQTLS, 2, nil)

	var res loadgen.Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = loadgen.STime(loadgen.STimeOptions{
			Addr:        srv.Addr(),
			Clients:     8,
			Duration:    600 * time.Millisecond,
			RequestPath: "/2048",
		})
	}()
	time.Sleep(120 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	<-done

	if res.Connections == 0 {
		t.Fatalf("no connections completed before the drain: %s", res)
	}
	for _, w := range srv.Workers() {
		if n := w.ConnCount(); n != 0 {
			t.Fatalf("%s still holds %d connections", w, n)
		}
		if e := w.Engine(); e != nil && e.InflightTotal() != 0 {
			t.Fatalf("%s: %d offloads still in flight", w, e.InflightTotal())
		}
	}
}

// A context that expires mid-drain falls back to the hard cutoff and
// reports the context error.
func TestShutdownHardCutoff(t *testing.T) {
	srv, _ := startServer(t, ConfigSW, 1, nil)
	// A connection with admitted work that never finishes: its request
	// never arrives, so the drain cannot complete on its own.
	c := dialDrainClient(t, srv.Addr())
	if _, err := c.tc.Write([]byte("GET /12")); err != nil { // half a request line
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the worker read the partial request
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	for _, w := range srv.Workers() {
		if n := w.ConnCount(); n != 0 {
			t.Fatalf("%s still holds %d connections after hard cutoff", w, n)
		}
	}
}

// The satellite regression: Stop hammered while handshakes are actively
// in flight, repeatedly and from multiple goroutines, must never
// double-close a descriptor, race the teardown, or strand an offload.
func TestStopDuringActiveHandshakes(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 128})
		srv, err := New(Options{
			Addr:    "127.0.0.1:0",
			Workers: 2,
			Run:     ConfigQTLS,
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

		loadDone := make(chan struct{})
		go func() {
			defer close(loadDone)
			loadgen.STime(loadgen.STimeOptions{
				Addr:     srv.Addr(),
				Clients:  8,
				Duration: 400 * time.Millisecond,
			})
		}()
		time.Sleep(40 * time.Millisecond) // handshakes now in flight

		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				srv.Stop()
			}()
		}
		wg.Wait()
		<-loadDone

		for _, w := range srv.Workers() {
			if e := w.Engine(); e != nil && e.InflightTotal() != 0 {
				t.Fatalf("iter %d: %s left %d offloads in flight after Stop",
					iter, w, e.InflightTotal())
			}
		}
		dev.Close()
	}
}
