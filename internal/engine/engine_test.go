package engine

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

func newStack() *asynclib.StackOp { return &asynclib.StackOp{} }

func newWaitCtx(cb func(any), arg any) *asynclib.WaitCtx {
	w := asynclib.NewWaitCtx()
	w.SetCallback(cb, arg)
	return w
}

var (
	idOnce sync.Once
	rsaID  *minitls.Identity
)

func rsaIdentity(t testing.TB) *minitls.Identity {
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

func newEngine(t *testing.T, spec qat.DeviceSpec) (*Engine, *qat.Device) {
	t.Helper()
	dev := qat.NewDevice(spec)
	t.Cleanup(dev.Close)
	inst, err := dev.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	dev := qat.NewDevice(qat.DeviceSpec{})
	defer dev.Close()
	inst, _ := dev.AllocInstance()
	if _, err := New(Config{Instance: inst, Offload: []minitls.OpKind{minitls.KindHKDF}}); err == nil {
		t.Fatal("HKDF offload accepted")
	}
}

// Straight offload blocks until the result is ready — and produces it.
func TestStraightOffloadBlocksAndCompletes(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{ServiceTime: map[qat.OpType]time.Duration{qat.OpRSA: 5 * time.Millisecond}})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	start := time.Now()
	res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return "signed", nil })
	if err != nil || res != "signed" {
		t.Fatalf("Do = %v, %v", res, err)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("returned after %v; straight mode must wait for the device", el)
	}
	if e.InflightTotal() != 0 {
		t.Fatalf("inflight = %d", e.InflightTotal())
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Retrieved != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHKDFNeverOffloaded(t *testing.T) {
	e, dev := newEngine(t, qat.DeviceSpec{})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	res, err := e.Do(call, minitls.KindHKDF, func() (any, error) { return 42, nil })
	if err != nil || res != 42 {
		t.Fatalf("Do = %v, %v", res, err)
	}
	for _, c := range dev.Counters() {
		if c.TotalRequests() != 0 {
			t.Fatal("HKDF reached the device")
		}
	}
}

func TestOffloadFilter(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{})
	defer dev.Close()
	inst, _ := dev.AllocInstance()
	e, err := New(Config{Instance: inst, Offload: []minitls.OpKind{minitls.KindRSA}})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	// PRF excluded from offload: runs inline.
	if _, err := e.Do(call, minitls.KindPRF, func() (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if dev.Counters()[0].TotalRequests() != 0 {
		t.Fatal("excluded kind reached the device")
	}
	if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if dev.Counters()[0].Requests[qat.OpRSA] != 1 {
		t.Fatal("offloaded kind did not reach the device")
	}
}

// End-to-end handshakes through a real device in each server mode.
func testHandshakeWithEngine(t *testing.T, mode minitls.AsyncMode) {
	e, _ := newEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 4})
	cliT, srvT := net.Pipe()
	defer cliT.Close()
	defer srvT.Close()
	var ops minitls.OpCounts
	server := minitls.Server(srvT, &minitls.Config{
		Identity:     rsaIdentity(t),
		Provider:     e,
		AsyncMode:    mode,
		CipherSuites: []uint16{minitls.TLS_RSA_WITH_AES_128_CBC_SHA},
		OpCounter:    &ops,
	})
	client := minitls.ClientConn(cliT, &minitls.Config{})
	cliErr := make(chan error, 1)
	go func() { cliErr <- client.Handshake() }()

	// Event-loop-like driver: on want-async, poll until at least one
	// response is retrieved, then re-drive the handshake.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := server.Handshake()
		if err == nil {
			break
		}
		if errors.Is(err, minitls.ErrWantAsync) || errors.Is(err, minitls.ErrWantAsyncRetry) {
			for e.Poll(0) == 0 && errors.Is(err, minitls.ErrWantAsync) {
				if time.Now().After(deadline) {
					t.Fatal("timed out polling for responses")
				}
				time.Sleep(50 * time.Microsecond)
			}
			continue
		}
		t.Fatalf("server handshake: %v", err)
	}
	if err := <-cliErr; err != nil {
		t.Fatalf("client: %v", err)
	}
	rsaN, _, prfN := ops.Table1Row()
	if rsaN != 1 || prfN != 4 {
		t.Fatalf("op counts RSA:%d PRF:%d", rsaN, prfN)
	}
	if e.InflightTotal() != 0 {
		t.Fatalf("inflight after handshake = %d", e.InflightTotal())
	}

	// Data transfer through the engine (cipher offload).
	msg := bytes.Repeat([]byte{7}, 48*1024)
	got := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(&connReader{client}, got)
		done <- err
	}()
	for {
		_, err := server.Write(msg)
		if err == nil {
			break
		}
		if errors.Is(err, minitls.ErrWantAsync) || errors.Is(err, minitls.ErrWantAsyncRetry) {
			for e.Poll(0) == 0 && errors.Is(err, minitls.ErrWantAsync) {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		t.Fatalf("write: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("transfer corrupted")
	}
}

type connReader struct{ c *minitls.Conn }

func (r *connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

func TestHandshakeStraight(t *testing.T) { testHandshakeWithEngine(t, minitls.AsyncModeOff) }
func TestHandshakeFiber(t *testing.T)    { testHandshakeWithEngine(t, minitls.AsyncModeFiber) }
func TestHandshakeStack(t *testing.T)    { testHandshakeWithEngine(t, minitls.AsyncModeStack) }

// Ring-full during stack submission surfaces ErrWantAsyncRetry and
// recovers after the ring drains.
func TestStackRingFullRetry(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{
		Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 1,
		ServiceTime: map[qat.OpType]time.Duration{qat.OpPRF: 2 * time.Millisecond},
	})
	// Fill the single-slot ring.
	blockCall := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: newStack()}
	if _, err := e.Do(blockCall, minitls.KindPRF, func() (any, error) { return 1, nil }); !errors.Is(err, minitls.ErrWantAsync) {
		t.Fatalf("first submit err = %v", err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: newStack()}
	if _, err := e.Do(call, minitls.KindPRF, func() (any, error) { return 2, nil }); !errors.Is(err, minitls.ErrWantAsyncRetry) {
		t.Fatalf("second submit err = %v", err)
	}
	if e.Stats().RingFulls == 0 {
		t.Fatal("ring-full not counted")
	}
	// Drain and retry.
	deadline := time.Now().Add(5 * time.Second)
	for e.Poll(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no response")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := e.Do(call, minitls.KindPRF, func() (any, error) { return 2, nil }); !errors.Is(err, minitls.ErrWantAsync) {
		t.Fatalf("retry err = %v", err)
	}
	for e.Poll(0) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	res, err := e.Do(call, minitls.KindPRF, nil)
	if err != nil || res != 2 {
		t.Fatalf("consume = %v, %v", res, err)
	}
}

// A fiber op paused by a full ring and resumed by its connection's cancel
// returns ErrCancelled instead of resubmitting: were it to park again, its
// job would outlive the connection closing it, holding the connection's
// op state while the event loop recycles it.
func TestFiberCancelledInRingFullPause(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{
		Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 1,
		ServiceTime: map[qat.OpType]time.Duration{qat.OpPRF: 2 * time.Millisecond},
	})
	blockCall := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: newStack()}
	if _, err := e.Do(blockCall, minitls.KindPRF, func() (any, error) { return 1, nil }); !errors.Is(err, minitls.ErrWantAsync) {
		t.Fatalf("filling submit err = %v", err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeFiber}
	job := new(asynclib.Job)
	call.Job = job
	st, _, err := asynclib.StartJob(job, func(*asynclib.Job) error {
		_, err := e.Do(call, minitls.KindPRF, func() (any, error) { return 2, nil })
		return err
	})
	if st != asynclib.StatusPause || err != nil || !call.SubmitFailed {
		t.Fatalf("submit into a full ring: %v, %v (submit failed %v)", st, err, call.SubmitFailed)
	}
	// The ring drains, so a resubmission would now be accepted; the
	// connection is being closed instead.
	for e.Poll(0) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	call.Cancelled = true
	if st, _, err := asynclib.StartJob(job, nil); st != asynclib.StatusFinish || !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled resume: %v, %v; want the job finished with ErrCancelled", st, err)
	}
	if s := e.Stats().Submitted; s != 1 {
		t.Fatalf("%d submissions, want only the one that filled the ring", s)
	}
}

// Inflight class counters track submissions and retrievals (§4.3).
func TestInflightCounters(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{
		Endpoints: 1, EnginesPerEndpoint: 1,
		ServiceTime: map[qat.OpType]time.Duration{
			qat.OpRSA: 3 * time.Millisecond,
			qat.OpPRF: 3 * time.Millisecond,
		},
	})
	calls := []*minitls.OpCall{
		{Mode: minitls.AsyncModeStack, Stack: newStack()},
		{Mode: minitls.AsyncModeStack, Stack: newStack()},
		{Mode: minitls.AsyncModeStack, Stack: newStack()},
	}
	e.Do(calls[0], minitls.KindRSA, func() (any, error) { return nil, nil })
	e.Do(calls[1], minitls.KindRSA, func() (any, error) { return nil, nil })
	e.Do(calls[2], minitls.KindPRF, func() (any, error) { return nil, nil })
	if e.InflightAsym() != 2 || e.Inflight(ClassPRF) != 1 || e.InflightTotal() != 3 {
		t.Fatalf("inflight asym=%d prf=%d total=%d", e.InflightAsym(), e.Inflight(ClassPRF), e.InflightTotal())
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.InflightTotal() > 0 {
		e.Poll(0)
		if time.Now().After(deadline) {
			t.Fatal("responses never drained")
		}
		time.Sleep(200 * time.Microsecond)
	}
	st := e.Stats()
	if st.Submitted != 3 || st.Retrieved != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// Kernel-bypass notification fires from the response callback during Poll.
func TestNotificationOnPoll(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{})
	stack := newStack()
	var notified []any
	wctx := newWaitCtx(func(arg any) { notified = append(notified, arg) }, "h1")
	call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: stack, WaitCtx: wctx}
	if _, err := e.Do(call, minitls.KindPRF, func() (any, error) { return "x", nil }); !errors.Is(err, minitls.ErrWantAsync) {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Poll(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no response")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if len(notified) != 1 || notified[0] != "h1" {
		t.Fatalf("notified = %v", notified)
	}
	if res, err := e.Do(call, minitls.KindPRF, nil); err != nil || res != "x" {
		t.Fatalf("consume = %v, %v", res, err)
	}
}

// Concurrent offloads from many connections in one "worker": the core of
// QTLS — multiple crypto operations in flight from one goroutine. The
// overlap needs no clock: every op is on the device before the first poll.
func TestConcurrentOffloadsOneWorker(t *testing.T) {
	e, _ := newEngine(t, qat.DeviceSpec{
		Endpoints: 1, EnginesPerEndpoint: 8, RingCapacity: 64,
		ServiceTime: map[qat.OpType]time.Duration{qat.OpRSA: time.Millisecond},
	})
	const conns = 32
	stacks := make([]*minitls.OpCall, conns)
	results := make([]bool, conns)
	for i := range stacks {
		i := i
		stacks[i] = &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: newStack()}
		if _, err := e.Do(stacks[i], minitls.KindRSA, func() (any, error) { return i, nil }); !errors.Is(err, minitls.ErrWantAsync) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if e.InflightTotal() != conns {
		t.Fatalf("inflight = %d", e.InflightTotal())
	}
	done := 0
	deadline := time.Now().Add(20 * time.Second)
	for done < conns {
		e.Poll(0)
		for i, call := range stacks {
			if results[i] || call.Stack.State() != asynclib.StackReady {
				continue
			}
			res, err := e.Do(call, minitls.KindRSA, nil)
			if err != nil || res != i {
				t.Fatalf("consume %d = %v, %v", i, res, err)
			}
			results[i] = true
			done++
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d completed", done, conns)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := e.Stats(); st.Submitted != conns || st.Retrieved != conns || st.SWFallbacks != 0 {
		t.Fatalf("stats = %+v, want %d submitted and retrieved, no fallback", st, conns)
	}
}
