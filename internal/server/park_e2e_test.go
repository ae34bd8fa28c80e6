//go:build linux

package server

import (
	"bufio"
	"net"
	"testing"
	"time"

	"qtls/internal/minitls"
	"qtls/internal/offload"
	"qtls/internal/qat"
	"qtls/internal/trace"
)

// The spin-then-park loop end to end: a parked loop costs a bounded
// number of iterations however long the device takes, a suppressed wake
// costs at most the failover interval, and a connection parked on an
// offload cannot wake the loop it cannot use.

// newParkServer builds (without starting) a one-worker QTLS server over a
// device with the given per-op service times. The deadline wheel is off so
// that an otherwise idle loop iterates only for the reasons under test.
func newParkServer(t *testing.T, st map[qat.OpType]time.Duration) (*Server, *Worker, *trace.Recorder) {
	t.Helper()
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 2, RingCapacity: 128, ServiceTime: st})
	t.Cleanup(dev.Close)
	rec := trace.NewRecorder(1024)
	run := ConfigQTLS
	run.Deadlines = offload.DeadlinePolicy{Handshake: -1, Header: -1, Keepalive: -1, WriteStall: -1}
	srv, err := New(Options{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Run:     run,
		TLS: &minitls.Config{
			Identity:     identity(t),
			CipherSuites: []uint16{minitls.TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA},
		},
		Pool:    qat.PoolOf(dev),
		Handler: SizedBodyHandler(1 << 20),
		Trace:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv, srv.Workers()[0], rec
}

// parkClient is one established TLS connection driven by hand.
type parkClient struct {
	raw *net.TCPConn
	tc  *minitls.Conn
	br  *bufio.Reader
}

func dialParkClient(t *testing.T, addr string) *parkClient {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	tc := minitls.ClientConn(raw, &minitls.Config{})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	return &parkClient{raw: raw.(*net.TCPConn), tc: tc, br: bufio.NewReader(readerFor(tc))}
}

func (c *parkClient) send(t *testing.T, path string) {
	t.Helper()
	if _, err := c.tc.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
}

// A full handshake over a device whose RSA takes 2 ms costs a bounded
// number of loop iterations: per offloaded op at most the spin budget, the
// wake-up and the event that started it. Before the loop could park, the
// count was the service time divided by the cost of an empty iteration —
// unbounded in the device's latency.
func TestParkBoundsHandshakeIterations(t *testing.T) {
	srv, _, _ := newParkServer(t, map[qat.OpType]time.Duration{qat.OpRSA: 2 * time.Millisecond})
	srv.Start()
	before := srv.Stats()
	c := dialParkClient(t, srv.Addr())
	after := srv.Stats()
	c.raw.Close()

	ops := after.AsyncEvents - before.AsyncEvents
	if ops < 7 {
		t.Fatalf("handshake delivered %d async events, want the 7 of ECDHE-RSA", ops)
	}
	iters := after.LoopIters - before.LoopIters
	bound := ops * (offload.IdleSpinBudget + 4)
	t.Logf("handshake: %d loop iterations for %d offloaded ops (bound %d)", iters, ops, bound)
	if iters >= bound {
		t.Fatalf("handshake cost %d loop iterations for %d ops, want < %d", iters, ops, bound)
	}
	if after.ParkDeviceWakes == before.ParkDeviceWakes {
		t.Fatalf("a 2 ms op never parked the loop until its completion: %+v", after)
	}
	if after.FailoverPolls != before.FailoverPolls {
		t.Fatalf("retrieval fell back on the failover timer with the wake seam armed: %+v", after)
	}
}

// With the wake hook replaced by a no-op — every wake-up lost — responses
// are still retrieved: the park bound is the failover deadline, so the
// cost of a lost wake is at most the failover interval plus one epoll
// millisecond tick.
func TestParkLostWakeCostsAtMostFailover(t *testing.T) {
	const rsaTime = 2 * time.Millisecond
	srv, w, rec := newParkServer(t, map[qat.OpType]time.Duration{qat.OpRSA: rsaTime})
	for _, inst := range w.Engine().Instances() {
		inst.SetWakeHook(func() {})
	}
	rec.SetEnabled(true)
	srv.Start()
	for i := 0; i < 3; i++ {
		if body := fetchPath(t, srv.Addr(), "/512"); len(body) != 512 {
			t.Fatalf("fetch %d: body of %d bytes", i, len(body))
		}
	}
	st := srv.Stats()
	if st.Handshakes != 3 || st.Errors != 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if st.FailoverPolls == 0 || st.ParkTimeouts == 0 {
		t.Fatalf("lost wakes were not caught by the failover timer: %+v", st)
	}
	if e := w.Engine().Stats(); e.SWFallbacks != 0 || e.Timeouts != 0 {
		t.Fatalf("a park turned into a degraded op: %+v", e)
	}
	// Scheduling noise under -race is allowed for; sleeping through the
	// 50 ms idle wait instead of the failover deadline is not.
	limit := rsaTime + w.cfg.Poll.FailoverInterval + time.Millisecond + 15*time.Millisecond
	var worst time.Duration
	for _, s := range rec.Recent(0) {
		if s.Phase == trace.PhaseRetrieve && time.Duration(s.Dur) > worst {
			worst = time.Duration(s.Dur)
		}
	}
	if worst == 0 || worst > limit {
		t.Fatalf("slowest retrieval %v, want within (0, %v]", worst, limit)
	}
}

// Event disorder must not wake a parked loop it cannot use: the client's
// next request arrives while its connection waits on a 4 ms cipher op,
// the read is deferred, and until the op completes the loop spends no
// more than the spin budget plus a handful of iterations. The deferred
// bytes are served once the saved handler resumes.
func TestParkEventDisorderDoesNotSpin(t *testing.T) {
	srv, w, _ := newParkServer(t, map[qat.OpType]time.Duration{qat.OpCipher: 4 * time.Millisecond})
	srv.Start()
	c := dialParkClient(t, srv.Addr())
	c.send(t, "/64")
	lcReadResponse(t, c.br)

	measured := 0
	for attempt := 0; attempt < 30 && measured < 3; attempt++ {
		iters, events := w.Stats.LoopIters.Load(), w.Stats.AsyncEvents.Load()
		c.send(t, "/64") // decrypted in software, response seal offloaded: the conn parks
		time.Sleep(300 * time.Microsecond)
		c.send(t, "/64") // lands on a connection that is waiting for its async event
		time.Sleep(700 * time.Microsecond)
		spent := w.Stats.LoopIters.Load() - iters
		inPark := w.Stats.AsyncEvents.Load() == events
		lcReadResponse(t, c.br)
		lcReadResponse(t, c.br)
		if !inPark {
			continue // the sleeps overran the 4 ms op; this round measured nothing
		}
		measured++
		// One iteration for the request, the spin budget, one for the
		// deferred read, and slack for an idle-wait expiry or two.
		if spent > offload.IdleSpinBudget+4 {
			t.Fatalf("loop ran %d iterations while the connection was parked, want <= %d",
				spent, offload.IdleSpinBudget+4)
		}
	}
	if measured == 0 {
		t.Fatal("never sampled the loop inside the 4 ms park")
	}
	if st := srv.Stats(); st.Errors != 0 || st.Requests < int64(1+2*measured) {
		t.Fatalf("deferred requests were not served: %+v", st)
	}
}

// A half-close that arrives while the connection is parked on an offload
// is deferred like any other read event; the response still goes out, and
// the connection closes cleanly when the saved handler resumes and reads
// the end of stream.
func TestParkHalfCloseDuringOffload(t *testing.T) {
	srv, w, _ := newParkServer(t, map[qat.OpType]time.Duration{qat.OpCipher: 4 * time.Millisecond})
	srv.Start()
	c := dialParkClient(t, srv.Addr())
	c.send(t, "/256")
	time.Sleep(300 * time.Microsecond)
	if err := c.raw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	lcReadResponse(t, c.br)
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("server kept the connection open after the client's half-close")
	}
	if !waitUntil(t, 2*time.Second, func() bool { return w.Stats.ClosedConns.Load() == 1 }) {
		t.Fatalf("connection not closed after half-close: %+v", srv.Stats())
	}
	if st := srv.Stats(); st.Errors != 0 || st.Requests != 1 {
		t.Fatalf("half-close during park: %+v", st)
	}
	if n := w.Engine().InflightTotal(); n != 0 {
		t.Fatalf("%d offloads left in flight", n)
	}
}
