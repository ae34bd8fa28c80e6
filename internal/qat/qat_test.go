package qat

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestDevice(t *testing.T, spec DeviceSpec) *Device {
	t.Helper()
	d := NewDevice(spec)
	t.Cleanup(d.Close)
	return d
}

func waitInflightZero(t *testing.T, inst *Instance, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	total := 0
	for inst.Inflight() > 0 {
		total += inst.Poll(0)
		if time.Now().After(deadline) {
			t.Fatalf("inflight did not drain: %d left", inst.Inflight())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return total
}

func TestSubmitPollRoundTrip(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{})
	inst, err := d.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	for i := 0; i < 100; i++ {
		i := i
		for {
			err := inst.Submit(Request{
				Op:   OpRSA,
				Work: func() (any, error) { return i * 2, nil },
				Callback: func(r Response) {
					if r.Err != nil {
						t.Errorf("unexpected err: %v", r.Err)
					}
					got.Add(int64(r.Result.(int)))
				},
			})
			if errors.Is(err, ErrRingFull) {
				inst.Poll(0)
				continue
			}
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			break
		}
	}
	waitInflightZero(t, inst, 5*time.Second)
	want := int64(99 * 100) // 2*sum(0..99)
	if got.Load() != want {
		t.Fatalf("sum = %d, want %d", got.Load(), want)
	}
}

func TestWorkErrorPropagates(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{})
	inst, _ := d.AllocInstance()
	sentinel := errors.New("boom")
	var seen error
	inst.Submit(Request{
		Op:       OpPRF,
		Work:     func() (any, error) { return nil, sentinel },
		Callback: func(r Response) { seen = r.Err },
	})
	waitInflightZero(t, inst, 5*time.Second)
	if !errors.Is(seen, sentinel) {
		t.Fatalf("err = %v, want sentinel", seen)
	}
}

func TestRingFull(t *testing.T) {
	block := make(chan struct{})
	d := newTestDevice(t, DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 1,
		RingCapacity:       4,
	})
	inst, _ := d.AllocInstance()
	// The single engine will block on the first request; the ring admits
	// ringCap in-flight total.
	for i := 0; i < 4; i++ {
		err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) {
			<-block
			return nil, nil
		}})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
	close(block)
	waitInflightZero(t, inst, 5*time.Second)
	// After draining, submission succeeds again.
	if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}); err != nil {
		t.Fatalf("Submit after drain: %v", err)
	}
	waitInflightZero(t, inst, 5*time.Second)
}

func TestEngineParallelism(t *testing.T) {
	const engines = 4
	d := newTestDevice(t, DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: engines,
		RingCapacity:       64,
	})
	inst, _ := d.AllocInstance()
	var cur, peak atomic.Int64
	var mu sync.Mutex
	gate := make(chan struct{})
	for i := 0; i < engines; i++ {
		inst.Submit(Request{Op: OpECDH, Work: func() (any, error) {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			<-gate
			cur.Add(-1)
			return nil, nil
		}})
	}
	// Give engines time to pick all four up.
	deadline := time.Now().Add(2 * time.Second)
	for cur.Load() < engines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	waitInflightZero(t, inst, 5*time.Second)
	if peak.Load() != engines {
		t.Fatalf("peak parallelism = %d, want %d", peak.Load(), engines)
	}
}

func TestConcurrencyLimitedByEngines(t *testing.T) {
	// One engine: two blocking jobs must run sequentially.
	d := newTestDevice(t, DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 8})
	inst, _ := d.AllocInstance()
	var concurrent, maxConc atomic.Int64
	for i := 0; i < 5; i++ {
		inst.Submit(Request{Op: OpRSA, Work: func() (any, error) {
			n := concurrent.Add(1)
			for {
				old := maxConc.Load()
				if n <= old || maxConc.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			concurrent.Add(-1)
			return nil, nil
		}})
	}
	waitInflightZero(t, inst, 5*time.Second)
	if maxConc.Load() != 1 {
		t.Fatalf("max concurrency = %d, want 1", maxConc.Load())
	}
}

func TestCountersTrackOps(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{Endpoints: 2})
	// Two instances land on different endpoints (round-robin).
	i1, _ := d.AllocInstance()
	i2, _ := d.AllocInstance()
	if i1.Endpoint() == i2.Endpoint() {
		t.Fatalf("instances share endpoint %d; want round-robin", i1.Endpoint())
	}
	i1.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }})
	i1.Submit(Request{Op: OpPRF, Work: func() (any, error) { return nil, nil }})
	i2.Submit(Request{Op: OpCipher, Work: func() (any, error) { return nil, nil }})
	waitInflightZero(t, i1, 5*time.Second)
	waitInflightZero(t, i2, 5*time.Second)
	cs := d.Counters()
	if cs[i1.Endpoint()].Requests[OpRSA] != 1 || cs[i1.Endpoint()].Requests[OpPRF] != 1 {
		t.Fatalf("endpoint0 counters = %+v", cs[i1.Endpoint()])
	}
	if cs[i2.Endpoint()].Requests[OpCipher] != 1 {
		t.Fatalf("endpoint1 counters = %+v", cs[i2.Endpoint()])
	}
	for _, c := range cs {
		if c.TotalRequests() != c.TotalResponses() {
			t.Fatalf("requests %d != responses %d", c.TotalRequests(), c.TotalResponses())
		}
	}
}

func TestPollMaxBatches(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{})
	inst, _ := d.AllocInstance()
	for i := 0; i < 10; i++ {
		inst.Submit(Request{Op: OpPRF, Work: func() (any, error) { return nil, nil }})
	}
	// Wait for all responses to be ready.
	deadline := time.Now().Add(5 * time.Second)
	for inst.Available() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("responses not ready: %d", inst.Available())
		}
		time.Sleep(time.Millisecond)
	}
	if n := inst.Poll(3); n != 3 {
		t.Fatalf("Poll(3) = %d", n)
	}
	if n := inst.Poll(0); n != 7 {
		t.Fatalf("Poll(0) = %d, want 7", n)
	}
	if inst.Inflight() != 0 {
		t.Fatalf("Inflight = %d", inst.Inflight())
	}
}

func TestServiceTimeEnforced(t *testing.T) {
	const minT = 20 * time.Millisecond
	d := newTestDevice(t, DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 1,
		ServiceTime:        map[OpType]time.Duration{OpRSA: minT},
	})
	inst, _ := d.AllocInstance()
	start := time.Now()
	inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }})
	waitInflightZero(t, inst, 5*time.Second)
	if el := time.Since(start); el < minT {
		t.Fatalf("service time %v < configured minimum %v", el, minT)
	}
}

func TestInstanceExhaustion(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{Endpoints: 1, MaxInstancesPerEndpoint: 2})
	if _, err := d.AllocInstance(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocInstance(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocInstance(); err == nil {
		t.Fatal("expected allocation failure")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	d := NewDevice(DeviceSpec{})
	inst, _ := d.AllocInstance()
	d.Close()
	d.Close() // idempotent
	if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := d.AllocInstance(); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc err = %v, want ErrClosed", err)
	}
}

// TestWakeNeverLost hammers the wake seam's ordering contract: the owner
// arms, then checks the ring, then blocks; engines complete concurrently.
// Whichever side gets there first, no round may sit out its block — a
// response placed before the check is seen by it, one placed after finds
// the flag set and fires the hook.
func TestWakeNeverLost(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 4, RingCapacity: 64})
	inst, _ := d.AllocInstance()
	wake := make(chan struct{}, 1) // like the wake pipe: one pending token is enough
	inst.SetWakeHook(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	lost := time.NewTimer(time.Hour)
	defer lost.Stop()

	const rounds = 10000
	var sink atomic.Int64
	got, parks, fired := 0, 0, 0
	for r := 0; r < rounds; r++ {
		n := 1 + r%3
		for i := 0; i < n; i++ {
			spin := (r * 7 % 11) * 40 // 0..400 iterations: completions land on both sides of the check
			err := inst.Submit(Request{
				Op: OpCipher,
				Work: func() (any, error) {
					for k := 0; k < spin; k++ {
						sink.Add(1)
					}
					return nil, nil
				},
				Callback: func(Response) { got++ },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for want := got + n; got < want; {
			inst.ArmWake()
			if inst.Available() == 0 {
				parks++
				lost.Reset(10 * time.Second) // stands in for the failover interval
				select {
				case <-wake:
				case <-lost.C:
					t.Fatalf("round %d: wake-up lost (%d of %d responses retrieved)", r, got, want)
				}
			}
			if inst.DisarmWake() {
				fired++
			}
			inst.Poll(0)
		}
	}
	if inst.Inflight() != 0 {
		t.Fatalf("inflight = %d after %d rounds", inst.Inflight(), rounds)
	}
	if parks == 0 || fired == 0 {
		t.Fatalf("hammer never parked (%d) or never saw the hook fire (%d)", parks, fired)
	}
	t.Logf("%d rounds: %d parks, hook fired in %d armed windows", rounds, parks, fired)
}

func TestSubmitValidation(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{})
	inst, _ := d.AllocInstance()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil work", func() { inst.Submit(Request{Op: OpRSA}) })
	mustPanic("bad op", func() {
		inst.Submit(Request{Op: OpType(99), Work: func() (any, error) { return nil, nil }})
	})
}

func TestOpTypeStrings(t *testing.T) {
	cases := map[OpType]string{OpRSA: "rsa", OpECDSA: "ecdsa", OpECDH: "ecdh", OpPRF: "prf", OpCipher: "cipher", OpType(42): "op(42)"}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(op), op.String(), want)
		}
	}
	if !OpRSA.Asymmetric() || !OpECDSA.Asymmetric() || !OpECDH.Asymmetric() {
		t.Fatal("asym ops misclassified")
	}
	if OpPRF.Asymmetric() || OpCipher.Asymmetric() {
		t.Fatal("sym ops misclassified")
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 4, RingCapacity: 256})
	var wg sync.WaitGroup
	var done atomic.Int64
	const workers = 8
	const perWorker = 200
	insts := make([]*Instance, workers)
	for w := 0; w < workers; w++ {
		inst, err := d.AllocInstance()
		if err != nil {
			t.Fatal(err)
		}
		insts[w] = inst
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(inst *Instance) {
			defer wg.Done()
			submitted := 0
			for submitted < perWorker {
				err := inst.Submit(Request{
					Op:       OpRSA,
					Work:     func() (any, error) { return 1, nil },
					Callback: func(Response) { done.Add(1) },
				})
				if errors.Is(err, ErrRingFull) {
					inst.Poll(0)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted++
			}
			deadline := time.Now().Add(10 * time.Second)
			for inst.Inflight() > 0 && time.Now().Before(deadline) {
				inst.Poll(0)
				time.Sleep(100 * time.Microsecond)
			}
		}(insts[w])
	}
	wg.Wait()
	if done.Load() != workers*perWorker {
		t.Fatalf("completed %d, want %d", done.Load(), workers*perWorker)
	}
}

func TestInstanceStats(t *testing.T) {
	d := NewDevice(DeviceSpec{RingCapacity: 2})
	defer d.Close()
	inst, err := d.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Stats(); got != (InstanceStats{}) {
		t.Fatalf("fresh instance stats = %+v", got)
	}
	if n := inst.Poll(0); n != 0 {
		t.Fatalf("empty poll retrieved %d", n)
	}
	block := make(chan struct{})
	work := func() (any, error) { <-block; return nil, nil }
	for i := 0; i < 2; i++ {
		if err := inst.Submit(Request{Op: OpRSA, Work: work}); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Submit(Request{Op: OpRSA, Work: work}); err != ErrRingFull {
		t.Fatalf("overfull submit err = %v", err)
	}
	close(block)
	deadline := time.Now().Add(5 * time.Second)
	got := 0
	for got < 2 {
		if time.Now().After(deadline) {
			t.Fatal("responses never arrived")
		}
		got += inst.Poll(0)
	}
	st := inst.Stats()
	if st.Submits != 2 || st.RingFull != 1 || st.Dequeued != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Polls < 2 || st.EmptyPolls < 1 || st.MaxBatch < 1 || st.MaxBatch > 2 {
		t.Fatalf("poll stats = %+v", st)
	}
}
