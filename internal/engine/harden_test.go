package engine

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/fault"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// hardenedEngine builds an engine over a freshly faulted device.
func hardenedEngine(t *testing.T, spec qat.DeviceSpec, inj *fault.Injector, cfg Config) (*Engine, *qat.Device) {
	t.Helper()
	spec.Injector = inj
	dev := qat.NewDevice(spec)
	t.Cleanup(dev.Close)
	if cfg.Instance == nil && cfg.Instances == nil {
		inst, err := dev.AllocInstance()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Instance = inst
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

// A corrupted response is caught by the verify hook, retried, and — with
// corruption persisting — degraded to software.
func TestVerifyHookRetriesThenFallsBack(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{Kind: fault.Corrupt, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1})
	want := []byte("good-signature")
	e, _ := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1}, inj, Config{
		MaxRetries:   2,
		RetryBackoff: 100 * time.Microsecond,
		Verify: func(_ minitls.OpKind, result any) bool {
			b, ok := result.([]byte)
			return ok && bytes.Equal(b, want) // sign→verify stand-in
		},
	})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	res, err := e.Do(call, minitls.KindRSA, func() (any, error) {
		out := make([]byte, len(want))
		copy(out, want)
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.([]byte), want) {
		t.Fatalf("corrupted result delivered: %q", res)
	}
	st := e.Stats()
	if st.VerifyFails != 3 || st.Retries != 2 || st.SWFallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A one-shot corruption is healed by a single retry — no fallback needed.
func TestVerifyHookRetrySucceeds(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{Kind: fault.Corrupt, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: 1})
	want := []byte("good-signature")
	e, _ := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1}, inj, Config{
		MaxRetries: 3,
		Verify: func(_ minitls.OpKind, result any) bool {
			b, ok := result.([]byte)
			return ok && bytes.Equal(b, want)
		},
	})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	res, err := e.Do(call, minitls.KindRSA, func() (any, error) {
		out := make([]byte, len(want))
		copy(out, want)
		return out, nil
	})
	if err != nil || !bytes.Equal(res.([]byte), want) {
		t.Fatalf("Do = %q, %v", res, err)
	}
	st := e.Stats()
	if st.Retries != 1 || st.SWFallbacks != 0 || st.VerifyFails != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A submit-time endpoint reset is retryable: the resubmission lands after
// the reset and completes on the device.
func TestDeviceResetRetried(t *testing.T) {
	inj := fault.NewInjector(1, fault.Rule{Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: 1})
	e, dev := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1}, inj, Config{
		MaxRetries: 2,
	})
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return 7, nil })
	if err != nil || res != 7 {
		t.Fatalf("Do = %v, %v", res, err)
	}
	st := e.Stats()
	if st.Retries != 1 || st.SWFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if dev.Resets()[0] != 1 {
		t.Fatalf("resets = %v", dev.Resets())
	}
}

// A persistently sick instance trips its circuit, and submissions route to
// the healthy instance on the other endpoint from then on. The health
// manager's clock is held, so the circuit never cools down.
func TestBreakerRoutesAroundSickInstance(t *testing.T) {
	// Endpoint 0 stalls everything; endpoint 1 is healthy.
	inj := fault.NewInjector(1, fault.Rule{Kind: fault.Stall, Endpoint: 0, Op: fault.AnyOp, P: 1})
	spec := qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 1}
	spec.Injector = inj
	pool := qat.PoolOf(qat.NewDevice(spec))
	t.Cleanup(pool.Close)
	var insts []*qat.Instance
	for i := 0; i < 2; i++ {
		inst, err := pool.AllocInstance(0)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	if insts[0].Endpoint() == insts[1].Endpoint() {
		t.Fatal("instances share an endpoint; the test needs one per endpoint")
	}
	e, err := New(Config{
		Instances: insts,
		OpTimeout: 10 * time.Millisecond,
		Lifecycle: qat.NewLifecycle(pool, newTestClock().Now),
	})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	// Round-robin sends every other op to the sick instance: 12 ops give
	// it more than the 4 outcomes its circuit needs to trip.
	for i := 0; i < 12; i++ {
		res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return i, nil })
		if err != nil || res != i {
			t.Fatalf("op %d: %v, %v", i, res, err)
		}
	}
	st := e.Stats()
	if st.Trips < 1 {
		t.Fatalf("sick instance never tripped: %+v", st)
	}
	if st.Timeouts < 2 {
		t.Fatalf("timeouts = %d", st.Timeouts)
	}
	// With the circuit open, further ops must complete without timeouts.
	before := e.Stats().Timeouts
	for i := 0; i < 8; i++ {
		if _, err := e.Do(call, minitls.KindRSA, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if after := e.Stats().Timeouts; after != before {
		t.Fatalf("circuit open but %d more timeouts", after-before)
	}
	var sick, healthy *InstanceHealth
	for i, h := range e.Health() {
		h := h
		if e.insts[i].Endpoint() == 0 {
			sick = &h
		} else {
			healthy = &h
		}
	}
	if sick.State != qat.BreakerOpen {
		t.Fatalf("sick instance state = %v", sick.State)
	}
	if healthy.State != qat.BreakerClosed {
		t.Fatalf("healthy instance state = %v", healthy.State)
	}
}

// With every instance circuit-broken, ops degrade straight to software
// rather than erroring out.
func TestAllInstancesTrippedFallsBack(t *testing.T) {
	// The circuit's minimum sample count: that many timeouts trip it.
	const tripAfter = 4
	inj := fault.NewInjector(1, fault.Rule{Kind: fault.Stall, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1})
	pool := qat.PoolOf(qat.NewDevice(qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, Injector: inj}))
	t.Cleanup(pool.Close)
	inst, err := pool.AllocInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Instance:  inst,
		OpTimeout: 2 * time.Millisecond,
		Lifecycle: qat.NewLifecycle(pool, newTestClock().Now),
	})
	if err != nil {
		t.Fatal(err)
	}
	call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
	for i := 0; i < 2*tripAfter; i++ {
		res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return i, nil })
		if err != nil || res != i {
			t.Fatalf("op %d: %v, %v", i, res, err)
		}
	}
	st := e.Stats()
	if st.Timeouts != tripAfter {
		t.Fatalf("expected exactly %d timeouts before the trip, got %+v", tripAfter, st)
	}
	if st.SWFallbacks != 2*tripAfter {
		t.Fatalf("fallbacks = %d", st.SWFallbacks)
	}
	if h := e.Health(); h[0].State != qat.BreakerOpen {
		t.Fatalf("health = %+v", h)
	}
}

// Satellite: ring-full retry under many concurrent submitters. Each
// goroutine owns its engine (the single-owner model), all instances share
// one tiny-ringed device sprinkled with injected ring-full storms; every
// op must complete, and slot accounting must balance, under -race.
func TestConcurrentSubmittersRingFull(t *testing.T) {
	const (
		submitters = 8
		opsEach    = 40
	)
	inj := fault.NewInjector(42, fault.Rule{
		Kind: fault.RingFull, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 0.3, Limit: 200,
	})
	spec := qat.DeviceSpec{
		Endpoints: 2, EnginesPerEndpoint: 2, RingCapacity: 2,
		ServiceTime: map[qat.OpType]time.Duration{qat.OpRSA: 200 * time.Microsecond},
	}
	spec.Injector = inj
	dev := qat.NewDevice(spec)
	t.Cleanup(dev.Close)

	var wg sync.WaitGroup
	errCh := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		inst, err := dev.AllocInstance()
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Instance: inst})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, e *Engine) {
			defer wg.Done()
			call := &minitls.OpCall{Mode: minitls.AsyncModeOff}
			for i := 0; i < opsEach; i++ {
				want := g*1000 + i
				res, err := e.Do(call, minitls.KindRSA, func() (any, error) { return want, nil })
				if err != nil {
					errCh <- err
					return
				}
				if res != want {
					errCh <- errors.New("wrong result under ring-full storm")
					return
				}
			}
			if e.InflightTotal() != 0 {
				errCh <- errors.New("inflight not drained")
			}
		}(g, e)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var reqs, resps uint64
	for _, c := range dev.Counters() {
		reqs += c.TotalRequests()
		resps += c.TotalResponses()
	}
	if reqs != submitters*opsEach || resps != reqs {
		t.Fatalf("device counters: requests=%d responses=%d", reqs, resps)
	}
}

// Satellite: the stack-async retry flag under an injected ring-full storm —
// the single-worker SubmitFailed/StackRetry path the server's retry queue
// drives.
func TestStackRetryUnderRingFullStorm(t *testing.T) {
	inj := fault.NewInjector(7, fault.Rule{
		Kind: fault.RingFull, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp, P: 1, Limit: 5,
	})
	e, _ := hardenedEngine(t, qat.DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1}, inj, Config{})
	st := &asynclib.StackOp{}
	call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: st}
	work := func() (any, error) { return "v", nil }
	storms := 0
	for {
		_, err := e.Do(call, minitls.KindRSA, work)
		if errors.Is(err, minitls.ErrWantAsyncRetry) {
			storms++
			if st.State() != asynclib.StackRetry {
				t.Fatalf("state = %v after retry indication", st.State())
			}
			continue
		}
		if !errors.Is(err, minitls.ErrWantAsync) {
			t.Fatalf("submit err = %v", err)
		}
		break
	}
	if storms != 5 {
		t.Fatalf("retries before success = %d, want 5", storms)
	}
	if e.Stats().RingFulls != 5 {
		t.Fatalf("ring-full count = %d", e.Stats().RingFulls)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Poll(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no response")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if res, err := e.Do(call, minitls.KindRSA, nil); err != nil || res != "v" {
		t.Fatalf("consume = %v, %v", res, err)
	}
}
