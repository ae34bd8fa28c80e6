package engine

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"qtls/internal/asynclib"
	"qtls/internal/minitls"
	"qtls/internal/qat"
)

// A worker with instances on several endpoints can employ more engines
// than any single endpoint offers (§2.3).
func TestMultiInstanceSpansEndpoints(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 1})
	defer dev.Close()
	var insts []*qat.Instance
	for i := 0; i < 3; i++ {
		inst, err := dev.AllocInstance()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	// Round-robin allocation puts each instance on a distinct endpoint.
	seen := map[int]bool{}
	for _, inst := range insts {
		seen[inst.Endpoint()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("instances on %d endpoints, want 3", len(seen))
	}
	e, err := New(Config{Instances: insts})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Instances()) != 3 {
		t.Fatalf("engine instances = %d", len(e.Instances()))
	}

	// Submit 3 async ops; with one engine per endpoint, all three run
	// concurrently only because submissions were spread across endpoints.
	gate := make(chan struct{})
	running := make(chan struct{}, 3)
	var calls []*minitls.OpCall
	for i := 0; i < 3; i++ {
		call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
		calls = append(calls, call)
		_, err := e.Do(call, minitls.KindRSA, func() (any, error) {
			running <- struct{}{}
			<-gate
			return nil, nil
		})
		if !errors.Is(err, minitls.ErrWantAsync) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-running:
		case <-deadline:
			t.Fatalf("only %d ops running concurrently; submissions not balanced across endpoints", i)
		}
	}
	close(gate)
	waitDeadline := time.Now().Add(5 * time.Second)
	done := 0
	for done < 3 {
		e.Poll(0)
		done = 0
		for _, c := range calls {
			if c.Stack.State() == asynclib.StackReady {
				done++
			}
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("responses not retrieved: %d/3", done)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for _, c := range calls {
		if _, err := e.Do(c, minitls.KindRSA, nil); err != nil {
			t.Fatal(err)
		}
	}
	if e.InflightTotal() != 0 {
		t.Fatalf("inflight = %d", e.InflightTotal())
	}
}

// When one instance's ring is full, submission falls over to the others;
// ErrRingFull only surfaces when every ring is full.
func TestMultiInstanceRingFallback(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 2, EnginesPerEndpoint: 1, RingCapacity: 1})
	defer dev.Close()
	i1, _ := dev.AllocInstance()
	i2, _ := dev.AllocInstance()
	e, err := New(Config{Instances: []*qat.Instance{i1, i2}})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	blockWork := func() (any, error) { <-gate; return nil, nil }
	// Two submissions fill both 1-slot rings.
	for i := 0; i < 2; i++ {
		call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
		if _, err := e.Do(call, minitls.KindRSA, blockWork); !errors.Is(err, minitls.ErrWantAsync) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if i1.Inflight() != 1 || i2.Inflight() != 1 {
		t.Fatalf("inflight not balanced: %d/%d", i1.Inflight(), i2.Inflight())
	}
	// Third fails everywhere.
	call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
	if _, err := e.Do(call, minitls.KindRSA, blockWork); !errors.Is(err, minitls.ErrWantAsyncRetry) {
		t.Fatalf("third submit: %v, want retry", err)
	}
	if e.Stats().RingFulls == 0 {
		t.Fatal("ring-full not counted")
	}
}

// Single placement is plain round-robin over every instance: successive
// submissions land on successive instances, and a submission whose turn
// falls on a full ring goes to the next instance in the rotation.
func TestSinglePlacementRoundRobinOrder(t *testing.T) {
	dev := qat.NewDevice(qat.DeviceSpec{Endpoints: 3, EnginesPerEndpoint: 1, RingCapacity: 3})
	defer dev.Close()
	var insts []*qat.Instance
	for i := 0; i < 3; i++ {
		inst, err := dev.AllocInstance()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	e, err := New(Config{Instances: insts})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	blockWork := func() (any, error) { <-gate; return nil, nil }
	submitWant := func(want [3]int) {
		t.Helper()
		call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
		if _, err := e.Do(call, minitls.KindRSA, blockWork); !errors.Is(err, minitls.ErrWantAsync) {
			t.Fatalf("submit: %v", err)
		}
		if got := [3]int{insts[0].Inflight(), insts[1].Inflight(), insts[2].Inflight()}; got != want {
			t.Fatalf("per-instance inflight = %v, want %v", got, want)
		}
	}
	for _, want := range [][3]int{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		submitWant(want)
	}
	// Fill instance 1's last slot behind the engine's back. The seventh
	// submission is instance 0's turn; the eighth is instance 1's, whose
	// ring is full, so it spills to 2 without surfacing a ring-full.
	if err := insts[1].Submit(qat.Request{Op: qat.OpRSA, Work: blockWork, Callback: func(qat.Response) {}}); err != nil {
		t.Fatal(err)
	}
	submitWant([3]int{3, 3, 2})
	submitWant([3]int{3, 3, 3})
	if st := e.Stats(); st.RingFulls != 0 || st.Submitted != 8 {
		t.Fatalf("stats = %+v, want 8 submissions and no ring-full", st)
	}
}

// Routing walks its instance order in place, and a round trip recycles
// its attempt and its ring slot: an offloaded op allocates nothing, through
// a one-instance engine or a two-device conn-hash engine, whether it
// pauses on the stack-async flag or in a fiber. The bench probe
// engine.roundtrip_allocs measures the stack-mode round trip. Under -race,
// sync.Pool drops Puts at random, so the bound is only checked without it.
func TestRouteDoesNotAllocate(t *testing.T) {
	work := func() (any, error) { return nil, nil }
	stack := func(e *Engine) float64 {
		call := &minitls.OpCall{Mode: minitls.AsyncModeStack, Stack: &asynclib.StackOp{}}
		return testing.AllocsPerRun(200, func() {
			if _, err := e.Do(call, minitls.KindPRF, work); !errors.Is(err, minitls.ErrWantAsync) {
				t.Fatalf("submit: %v", err)
			}
			for e.Poll(0) == 0 {
				runtime.Gosched()
			}
			if _, err := e.Do(call, minitls.KindPRF, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	fiber := func(e *Engine) float64 {
		call := &minitls.OpCall{Mode: minitls.AsyncModeFiber}
		job := new(asynclib.Job)
		fn := func(*asynclib.Job) error {
			_, err := e.Do(call, minitls.KindPRF, work)
			return err
		}
		return testing.AllocsPerRun(200, func() {
			*job = asynclib.Job{}
			call.Job = job
			if st, _, err := asynclib.StartJob(job, fn); st != asynclib.StatusPause || err != nil {
				t.Fatalf("submit: %v, %v", st, err)
			}
			for e.Poll(0) == 0 {
				runtime.Gosched()
			}
			if st, _, err := asynclib.StartJob(job, nil); st != asynclib.StatusFinish || err != nil {
				t.Fatalf("resume: %v, %v", st, err)
			}
		})
	}
	for _, mode := range []struct {
		name      string
		roundTrip func(*Engine) float64
	}{{"stack", stack}, {"fiber", fiber}} {
		one, _ := newEngine(t, qat.DeviceSpec{})
		sharded := twoDeviceEngine(t, nil, Config{}, nil)
		managed := twoDeviceEngine(t, nil, Config{}, newTestClock())
		single, shard, health := mode.roundTrip(one), mode.roundTrip(sharded), mode.roundTrip(managed)
		if !raceEnabled && (single != 0 || shard != 0 || health != 0) {
			t.Errorf("%s: allocations per round trip: one instance %v, conn-hash over two devices %v, the same under the health manager %v; want 0",
				mode.name, single, shard, health)
		}
	}
}
