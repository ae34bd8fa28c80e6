//go:build linux

package server

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"qtls/internal/fault"
	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
)

// Tests of the connection lifetime (DESIGN.md "Connection lifetime"): a
// worker reuses a closed conn only once nothing can reach it, and a reused
// conn starts its next life fresh.

// loopWorker builds a worker whose loop the test drives by hand on its own
// goroutine: accepts, queueing, closes and queue passes happen in the
// order the test makes them.
func loopWorker(t *testing.T, run RunConfig) *Worker {
	t.Helper()
	var pool *qat.Pool
	if run.UseQAT {
		dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 64})
		t.Cleanup(dev.Close)
		pool = qat.PoolOf(dev)
	}
	w, err := NewWorker(0, run, "127.0.0.1:0", &minitls.Config{
		Identity:     identity(t),
		CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
	}, pool, SizedBodyHandler(1<<10), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.shutdown)
	return w
}

// acceptLife dials w and accepts the connection, returning the conn its
// life runs in.
func acceptLife(t *testing.T, w *Worker) *conn {
	t.Helper()
	cli, err := net.Dial("tcp4", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	before := make(map[*conn]bool, len(w.conns))
	for _, c := range w.conns {
		before[c] = true
	}
	for accepted := w.Stats.Accepted.Load(); w.Stats.Accepted.Load() == accepted; {
		w.acceptOne()
	}
	for _, c := range w.conns {
		if !before[c] {
			return c
		}
	}
	t.Fatal("the accepted connection is not in the worker's map")
	return nil
}

// TestReusedConnIgnoresStaleWheelEntry: the deadline generation carries
// over into a conn's next life, so the wheel entries an earlier life left
// behind stay stale — dropped when their slot comes around, never adopted
// by the next life and never expiring it. (A generation restarted at zero
// would match the first of them; the wheel's due-time check keeps that
// entry from firing early, but it is re-armed as a second live entry of
// the new life, which then expires twice.)
func TestReusedConnIgnoresStaleWheelEntry(t *testing.T) {
	now := time.Now()
	w := &Worker{tlsTmpl: &minitls.Config{}, wheel: newDeadlineWheel(10*time.Millisecond, now)}
	w.cfg.Deadlines = offload.DeadlinePolicy{
		Handshake:  50 * time.Millisecond,
		Header:     50 * time.Millisecond,
		Keepalive:  time.Second,
		WriteStall: 50 * time.Millisecond,
	}
	c := new(conn)
	w.startLife(c)
	// The first life re-arms three times, each time leaving an entry in the
	// wheel, and closes.
	for _, class := range []offload.DeadlineClass{offload.DeadlineHandshake, offload.DeadlineHeader, offload.DeadlineWrite} {
		w.armDeadline(c, class)
	}
	c.closed = true
	w.disarmDeadline(c)
	// The next life, in the same object, idles under the keepalive deadline.
	w.startLife(c)
	w.armDeadline(c, offload.DeadlineKeepalive)

	var fired []*conn
	expire := func(c *conn) { fired = append(fired, c) }
	w.wheel.advance(now.Add(200*time.Millisecond), expire)
	if len(fired) != 0 {
		t.Fatal("a deadline of the last life expired the next one")
	}
	if w.wheel.live != 1 {
		t.Fatalf("%d wheel entries live after the last life's deadlines passed, want the next life's 1", w.wheel.live)
	}
	w.wheel.advance(now.Add(1100*time.Millisecond), expire)
	if len(fired) != 1 || fired[0] != c {
		t.Fatalf("the next life's keepalive deadline fired %d times, want once", len(fired))
	}
}

// TestQueuedEventNeverResumesNextLife: a conn closed while the notifier
// still lists an async event for it is not reused until the event is
// popped, so the event cannot resume the connection that would live in
// the object next; once popped, the conn is reused.
func TestQueuedEventNeverResumesNextLife(t *testing.T) {
	w := loopWorker(t, ConfigQTLS)
	c1 := acceptLife(t, w)
	w.asyncEventCallback(c1) // a completion's event, delivered at the end of the iteration
	w.closeConn(c1)          // but the connection dies first
	c2 := acceptLife(t, w)
	if c2 == c1 {
		t.Fatal("a conn the notifier still lists was reused")
	}
	events := w.Stats.AsyncEvents.Load()
	w.processAsyncQueue()
	if w.Stats.AsyncEvents.Load() != events {
		t.Fatal("the event of a closed connection resumed a live one")
	}
	if c3 := acceptLife(t, w); c3 != c1 {
		t.Fatal("the conn was not reused once the notifier let go of it")
	}
}

// TestRetryQueuedConnNotInvokedInNextLife: a conn closed in the iteration
// that queued it for a submission retry is not reused before the retry
// pass, so the pass cannot invoke the connection living in the object
// next.
func TestRetryQueuedConnNotInvokedInNextLife(t *testing.T) {
	w := loopWorker(t, ConfigQTLS)
	c1 := acceptLife(t, w)
	w.queueRetry(c1) // a full ring: the op waits for the retry pass
	w.closeConn(c1)  // but the connection dies first
	c2 := acceptLife(t, w)
	if c2 == c1 {
		t.Fatal("a conn the retry queue still lists was reused")
	}
	invoked := 0
	c2.handler = func(*Worker, *conn) { invoked++ }
	w.processRetryQueue()
	if invoked != 0 {
		t.Fatal("the retry pass invoked a connection that never asked for a retry")
	}
	if c3 := acceptLife(t, w); c3 != c1 {
		t.Fatal("the conn was not reused once the retry queue let go of it")
	}
}

// TestAbandonedOpConnNeverReused: a device answers every record seal long
// after the op deadline, so each response's seal is abandoned to the
// software fallback while the device still runs it, reading the response
// header. A conn with an abandoned op builds every later header in an
// allocation of its own — the second response on each connection must not
// overwrite the header the late seal reads (a race under -race) — and is
// never reused, though every response comes through intact.
func TestAbandonedOpConnNeverReused(t *testing.T) {
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
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	const conns = 6
	want, _ := SizedBodyHandler(100)("/100")
	for i := 0; i < conns; i++ {
		raw, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		raw.SetDeadline(time.Now().Add(10 * time.Second))
		tc := minitls.ClientConn(raw, &minitls.Config{})
		if err := tc.Handshake(); err != nil {
			t.Fatal(err)
		}
		for _, connHdr := range []string{"keep-alive", "close"} {
			if _, err := tc.Write([]byte("GET /100 HTTP/1.1\r\nHost: x\r\nConnection: " + connHdr + "\r\n\r\n")); err != nil {
				t.Fatal(err)
			}
			head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: 100\r\nConnection: %s\r\n\r\n", connHdr)
			got := make([]byte, len(head)+len(want))
			if _, err := io.ReadFull(readerFor(tc), got); err != nil || string(got) != head+string(want) {
				t.Fatalf("connection %d, %s response: %q, %v", i, connHdr, got, err)
			}
		}
		// The server closes after the second response; reading its close
		// orders the next accept after that close.
		if _, err := readerFor(tc).Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("connection %d: after the last response: %v, want io.EOF", i, err)
		}
		raw.Close()
	}
	srv.Stop()
	w := srv.Workers()[0]
	if es := w.Engine().Stats(); es.Timeouts < 2*conns {
		t.Fatalf("engine stats %+v: want every seal abandoned at its deadline", es)
	}
	if n := w.Stats.Recycled.Load(); n != 0 {
		t.Fatalf("%d connections ran in a conn whose last life abandoned an op", n)
	}
	for _, c := range w.free {
		if c.tls.OpAbandoned() {
			t.Fatal("a conn with an abandoned op is on the free list")
		}
	}
}

// TestReusedConnStateIsolation: lives that end mid-handshake with an
// error, after a resumed handshake and after a full one are each followed,
// in the same recycled conn, by a full and a resumed handshake of the
// crypto/tls TLS 1.2 client over loopback. Each completes with the
// parameters it negotiated — nothing of the last life's handshake state
// or sticky error carries over — under software crypto and the three
// pause modes of an offloading worker.
func TestReusedConnStateIsolation(t *testing.T) {
	stack := ConfigQTLS
	stack.Name += "-stack"
	stack.AsyncMode = minitls.AsyncModeStack
	for _, run := range []RunConfig{ConfigSW, ConfigQATS, ConfigQTLS, stack} {
		t.Run(run.Name, func(t *testing.T) {
			var ticketKey [32]byte
			rand.Read(ticketKey[:])
			srv, _ := startServer(t, run, 1, func(c *minitls.Config) {
				c.TicketKey = &ticketKey
				c.CipherSuites = []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA}
			})
			w := srv.Workers()[0]
			cfg := &tls.Config{
				ServerName:         "qtls", // the session cache key
				MaxVersion:         tls.VersionTLS12,
				CipherSuites:       []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
				CurvePreferences:   []tls.CurveID{tls.CurveP256},
				InsecureSkipVerify: true,
			}
			// life runs one connection to its close by the server; resume
			// offers the session the last full handshake cached, and the
			// server's counters must move by exactly that one handshake.
			sessions := tls.NewLRUClientSessionCache(1)
			cfg.ClientSessionCache = sessions
			life := func(resume bool) {
				t.Helper()
				if !resume {
					sessions.Put(cfg.ServerName, nil)
				}
				before := srv.Stats()
				tc, err := tls.Dial("tcp4", srv.Addr(), cfg)
				if err != nil {
					t.Fatalf("resume=%v: handshake: %v", resume, err)
				}
				defer tc.Close()
				if st := tc.ConnectionState(); st.DidResume != resume || st.Version != tls.VersionTLS12 {
					t.Fatalf("resumed %v version %x, want resumed %v, TLS 1.2", st.DidResume, st.Version, resume)
				}
				fmt.Fprint(tc, "GET /64 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
				got, err := io.ReadAll(tc)
				if want := "HTTP/1.1 200 OK\r\nContent-Length: 64\r\nConnection: close\r\n\r\n"; err != nil || !bytes.HasPrefix(got, []byte(want)) || len(got) != len(want)+64 {
					t.Fatalf("resume=%v: response %q, %v", resume, got, err)
				}
				after := srv.Stats()
				resumed := int64(0)
				if resume {
					resumed = 1
				}
				if after.Handshakes != before.Handshakes+1 || after.Resumed != before.Resumed+resumed || after.Errors != before.Errors {
					t.Fatalf("resume=%v: server counters moved %+v -> %+v", resume, before, after)
				}
			}
			// failedLife sends a ClientHello and then a record no handshake
			// accepts: the server fails the handshake midway, with its flight
			// written, and closes.
			failedLife := func() {
				t.Helper()
				hello := clientHello(t, cfg)
				raw, err := net.Dial("tcp4", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer raw.Close()
				raw.SetDeadline(time.Now().Add(10 * time.Second))
				before := srv.Stats()
				raw.Write(append(hello, minitls.RecordTypeApplicationData, 3, 3, 0, 1, 'x'))
				io.Copy(io.Discard, raw) // until the server closes
				if after := srv.Stats(); after.Errors != before.Errors+1 || after.Handshakes != before.Handshakes {
					t.Fatalf("the failed handshake moved the server counters %+v -> %+v", before, after)
				}
			}

			life(false) // the first life, in a new conn, issues the session
			ends := []struct {
				name string
				end  func()
			}{
				{"failed", failedLife},
				{"resumed", func() { life(true) }},
				{"full", func() { life(false) }},
			}
			for _, e := range ends {
				e.end()
				life(false)
				life(true)
			}
			if got, want := w.Stats.Recycled.Load(), w.Stats.Accepted.Load()-1; got != want {
				t.Fatalf("%d of %d connections after the first ran in a recycled conn", got, want)
			}
		})
	}
}

// clientHello returns the first record a crypto/tls client with cfg sends.
func clientHello(t *testing.T, cfg *tls.Config) []byte {
	t.Helper()
	cc := &captureConn{}
	tls.Client(cc, cfg).Handshake() // fails on the first read, once the hello is written
	if len(cc.out) == 0 {
		t.Fatal("the client wrote no ClientHello")
	}
	return cc.out
}

// captureConn keeps what is written to it; reading fails.
type captureConn struct {
	net.Conn
	out []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

func (c *captureConn) Read([]byte) (int, error) { return 0, errors.New("capture only") }

// constReader is an entropy source whose every byte is the same, so a
// server's answer to a recorded client flight repeats exactly.
type constReader byte

func (r constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// teeConn keeps a copy of everything written through it.
type teeConn struct {
	net.Conn
	out []byte
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return c.Conn.Write(p)
}

// resumedGETFlights records what a client sends for a ticket-resumed TLS
// 1.2 handshake with a server on cfg, followed by a GET asking for
// Connection: close. cfg's entropy is constant, so the recording completes
// the same exchange with any server on cfg.
func resumedGETFlights(t *testing.T, cfg *minitls.Config) []byte {
	t.Helper()
	exchange := func(cli *minitls.Config, get bool) (*minitls.Conn, []byte) {
		sp, cp := net.Pipe()
		defer sp.Close()
		defer cp.Close()
		srvErr := make(chan error, 1)
		go func() {
			srv := minitls.Server(sp, cfg)
			err := srv.Handshake()
			if err == nil && get {
				_, err = srv.Read(make([]byte, 256))
			}
			srvErr <- err
		}()
		tee := &teeConn{Conn: cp}
		c := minitls.ClientConn(tee, cli)
		if err := c.Handshake(); err != nil {
			t.Fatal(err)
		}
		if get {
			if _, err := c.Write([]byte("GET /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-srvErr; err != nil {
			t.Fatal(err)
		}
		return c, tee.out
	}
	full, _ := exchange(&minitls.Config{Rand: constReader(7), RequestTicket: true}, false)
	sess := full.ResumptionSession()
	if sess == nil {
		t.Fatal("no session ticket issued")
	}
	_, out := exchange(&minitls.Config{Rand: constReader(7), Session: sess}, true)
	return out
}

// TestRecycledConnAllocations bounds what the server side of one short
// connection allocates once its conn comes from the free list: accept, a
// ticket-resumed handshake, a GET and the close, 1 object on package
// cbc's kernels and 3 on its standard-library fallback (5 while each CBC
// direction built an AES block and a CBC mode, 12 when each PRF derivation
// allocated a closure and a result, and each record seal a closure).
//
//	the path string the Handler receives                    1
//	two CBC directions, fallback only: a crypto/aes block each  2
//
// None is the connection's own: the conn, its socket, TLS and handshake
// state, the fiber job function, the PRF and seal op slots, the two CBC
// protections, the request, handshake and message buffers, the ticket
// plaintext and the response header all live in the recycled object.
func TestRecycledConnAllocations(t *testing.T) {
	var ticketKey [32]byte
	cfg := &minitls.Config{
		Identity:     identity(t),
		CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		TicketKey:    &ticketKey,
		Rand:         constReader(9),
	}
	flights := resumedGETFlights(t, cfg)
	body := []byte("hello\n")
	w, err := NewWorker(0, ConfigSW, "127.0.0.1:0", cfg, nil,
		func(string) ([]byte, bool) { return body, true }, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.shutdown)
	// Every connection is dialed and its whole flight written before the
	// measurement: the server finds the flight in its socket at accept.
	const runs = 50
	for i := 0; i <= runs; i++ {
		cli, err := net.Dial("tcp4", w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		if _, err := cli.Write(flights); err != nil {
			t.Fatal(err)
		}
	}
	served := w.Stats.Requests.Load()
	n := testing.AllocsPerRun(runs, func() {
		for accepted := w.Stats.Accepted.Load(); w.Stats.Accepted.Load() == accepted; {
			w.acceptOne()
		}
	})
	if got := w.Stats.Requests.Load() - served; got != runs+1 || w.Stats.Resumed.Load() != runs+1 || len(w.conns) != 0 {
		t.Fatalf("%d requests served, %d handshakes resumed, %d conns open; want %d, %d, 0",
			got, w.Stats.Resumed.Load(), len(w.conns), runs+1, runs+1)
	}
	if w.Stats.Recycled.Load() != runs {
		t.Fatalf("%d of %d connections ran in a recycled conn", w.Stats.Recycled.Load(), runs)
	}
	t.Logf("server side of a recycled resumed connection: %v objects", n)
	if want := 3 + 3*rekeyAllocs(); n > want && !raceEnabled {
		t.Errorf("server side of a recycled resumed connection allocates %v objects, want <= %v", n, want)
	}
}

// rekeyAllocs is what keying one pooled MAC allocates: nothing where the
// digests append their state (go1.24 on), one MarshalBinary per pad
// before that.
func rekeyAllocs() float64 {
	if _, ok := sha256.New().(interface {
		AppendBinary([]byte) ([]byte, error)
	}); ok {
		return 0
	}
	return 2
}
