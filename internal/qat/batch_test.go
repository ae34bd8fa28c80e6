package qat

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qtls/internal/fault"
)

func batchOf(n int, op OpType, done *atomic.Int64) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		i := i
		reqs[i] = Request{
			Op:   op,
			Work: func() (any, error) { return i, nil },
			Callback: func(r Response) {
				if done != nil {
					done.Add(1)
				}
			},
		}
	}
	return reqs
}

func TestSubmitBatchRoundTrip(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{RingCapacity: 64})
	inst, err := d.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	reqs := make([]Request, 10)
	for i := range reqs {
		i := i
		reqs[i] = Request{
			Op:   OpRSA,
			Work: func() (any, error) { return i * 2, nil },
			Callback: func(r Response) {
				if r.Err != nil {
					t.Errorf("unexpected err: %v", r.Err)
				}
				sum.Add(int64(r.Result.(int)))
			},
		}
	}
	n, err := inst.SubmitBatch(reqs)
	if err != nil || n != len(reqs) {
		t.Fatalf("SubmitBatch = (%d, %v), want (%d, nil)", n, err, len(reqs))
	}
	waitInflightZero(t, inst, 5*time.Second)
	if want := int64(9 * 10); sum.Load() != want { // 2*sum(0..9)
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	st := inst.Stats()
	if st.Submits != 10 || st.SubmitBatches != 1 || st.BatchSubmitted != 10 || st.MaxSubmitBatch != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Doorbells != 1 {
		t.Fatalf("Doorbells = %d, want 1 (one ring-lock acquisition per batch)", st.Doorbells)
	}
	cs := d.Counters()
	if cs[inst.Endpoint()].Requests[OpRSA] != 10 {
		t.Fatalf("fw counters = %+v", cs[inst.Endpoint()])
	}
}

func TestSubmitBatchEmpty(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{})
	inst, _ := d.AllocInstance()
	if n, err := inst.SubmitBatch(nil); n != 0 || err != nil {
		t.Fatalf("SubmitBatch(nil) = (%d, %v)", n, err)
	}
	if st := inst.Stats(); st != (InstanceStats{}) {
		t.Fatalf("empty batch touched stats: %+v", st)
	}
}

func TestSubmitBatchPartialAcceptance(t *testing.T) {
	block := make(chan struct{})
	d := newTestDevice(t, DeviceSpec{
		Endpoints:          1,
		EnginesPerEndpoint: 1,
		RingCapacity:       4,
	})
	inst, _ := d.AllocInstance()
	var done atomic.Int64
	reqs := make([]Request, 7)
	for i := range reqs {
		reqs[i] = Request{
			Op:       OpRSA,
			Work:     func() (any, error) { <-block; return nil, nil },
			Callback: func(Response) { done.Add(1) },
		}
	}
	n, err := inst.SubmitBatch(reqs)
	if n != 4 || !errors.Is(err, ErrRingFull) {
		t.Fatalf("SubmitBatch = (%d, %v), want (4, ErrRingFull)", n, err)
	}
	// The accepted prefix occupies exactly n ring slots; the tail carries
	// no ring state.
	if got := inst.Inflight(); got != 4 {
		t.Fatalf("Inflight = %d, want 4", got)
	}
	st := inst.Stats()
	if st.Submits != 4 || st.RingFull != 1 || st.SubmitBatches != 1 || st.BatchSubmitted != 4 {
		t.Fatalf("stats = %+v (partial batch must count RingFull once)", st)
	}
	// Retrying the unaccepted tail after a drain submits exactly the
	// remainder — no request is lost or duplicated.
	close(block)
	waitInflightZero(t, inst, 5*time.Second)
	n2, err := inst.SubmitBatch(reqs[n:])
	if n2 != 3 || err != nil {
		t.Fatalf("retry SubmitBatch = (%d, %v), want (3, nil)", n2, err)
	}
	waitInflightZero(t, inst, 5*time.Second)
	if done.Load() != 7 {
		t.Fatalf("completed %d, want 7", done.Load())
	}
	st = inst.Stats()
	if st.Submits != 7 || st.Doorbells != 2 || st.MaxSubmitBatch != 4 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestSubmitBatchFullRingRejectsAll(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	d := newTestDevice(t, DeviceSpec{Endpoints: 1, EnginesPerEndpoint: 1, RingCapacity: 2})
	inst, _ := d.AllocInstance()
	for i := 0; i < 2; i++ {
		if err := inst.Submit(Request{Op: OpRSA, Work: func() (any, error) { <-block; return nil, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := inst.SubmitBatch(batchOf(3, OpRSA, nil))
	if n != 0 || !errors.Is(err, ErrRingFull) {
		t.Fatalf("SubmitBatch on full ring = (%d, %v), want (0, ErrRingFull)", n, err)
	}
	st := inst.Stats()
	if st.RingFull != 1 || st.SubmitBatches != 0 || st.BatchSubmitted != 0 {
		t.Fatalf("stats = %+v (zero-acceptance batch must not count as a batch)", st)
	}
}

func TestSubmitBatchInjectedRingFullMidBatch(t *testing.T) {
	// The 4th submit opportunity hits an injected ring-full storm: the
	// batch is cut to a 3-request prefix and the fault is counted once.
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.RingFull, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp,
		P: 1, After: 3, Limit: 1,
	})
	d := newTestDevice(t, DeviceSpec{RingCapacity: 64, Injector: inj})
	inst, _ := d.AllocInstance()
	var done atomic.Int64
	reqs := batchOf(8, OpECDSA, &done)
	n, err := inst.SubmitBatch(reqs)
	if n != 3 || !errors.Is(err, ErrRingFull) {
		t.Fatalf("SubmitBatch = (%d, %v), want (3, ErrRingFull)", n, err)
	}
	if got := inj.Injected(fault.RingFull); got != 1 {
		t.Fatalf("injections = %d, want 1", got)
	}
	st := inst.Stats()
	if st.Submits != 3 || st.RingFull != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The storm has passed (limit=1): the tail retries cleanly.
	n2, err := inst.SubmitBatch(reqs[n:])
	if n2 != 5 || err != nil {
		t.Fatalf("retry = (%d, %v), want (5, nil)", n2, err)
	}
	waitInflightZero(t, inst, 5*time.Second)
	if done.Load() != 8 {
		t.Fatalf("completed %d, want 8", done.Load())
	}
}

func TestSubmitBatchResetMidBatch(t *testing.T) {
	// The 3rd submit opportunity resets the endpoint. The two accepted
	// requests were on the rings at reset time, so they complete with
	// retryable ErrDeviceReset responses; the tail was never submitted.
	inj := fault.NewInjector(1, fault.Rule{
		Kind: fault.Reset, Endpoint: fault.AnyEndpoint, Op: fault.AnyOp,
		P: 1, After: 2, Limit: 1,
	})
	d := newTestDevice(t, DeviceSpec{RingCapacity: 64, Injector: inj})
	inst, _ := d.AllocInstance()
	var resetErrs, okResps atomic.Int64
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{
			Op:   OpRSA,
			Work: func() (any, error) { return nil, nil },
			Callback: func(r Response) {
				if errors.Is(r.Err, ErrDeviceReset) {
					resetErrs.Add(1)
				} else if r.Err == nil {
					okResps.Add(1)
				}
			},
		}
	}
	n, err := inst.SubmitBatch(reqs)
	if n != 2 || !errors.Is(err, ErrDeviceReset) {
		t.Fatalf("SubmitBatch = (%d, %v), want (2, ErrDeviceReset)", n, err)
	}
	waitInflightZero(t, inst, 5*time.Second)
	if resetErrs.Load() != 2 || okResps.Load() != 0 {
		t.Fatalf("reset errs = %d ok = %d, want 2/0 (accepted prefix fails retryably)", resetErrs.Load(), okResps.Load())
	}
	if got := d.Resets()[inst.Endpoint()]; got != 1 {
		t.Fatalf("resets = %d, want 1", got)
	}
	// After the reset, the tail resubmits and completes normally.
	n2, err := inst.SubmitBatch(reqs[n:])
	if n2 != 4 || err != nil {
		t.Fatalf("resubmit = (%d, %v), want (4, nil)", n2, err)
	}
	waitInflightZero(t, inst, 5*time.Second)
	if okResps.Load() != 4 {
		t.Fatalf("ok responses = %d, want 4", okResps.Load())
	}
}

func TestSubmitBatchDoorbellAmortization(t *testing.T) {
	// The acceptance criterion of the batched path: ring-lock acquisitions
	// (Doorbells) grow per batch, not per op, so at batch size >= 4 the
	// batched instance rings the doorbell at most 1/4 as often as the
	// per-op instance for the same work.
	const total, batch = 48, 4
	d := newTestDevice(t, DeviceSpec{RingCapacity: 64})
	perOp, _ := d.AllocInstance()
	batched, _ := d.AllocInstance()
	var done atomic.Int64
	for i := 0; i < total; i++ {
		if err := perOp.Submit(batchOf(1, OpPRF, &done)[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i += batch {
		n, err := batched.SubmitBatch(batchOf(batch, OpPRF, &done))
		if err != nil || n != batch {
			t.Fatalf("SubmitBatch = (%d, %v)", n, err)
		}
	}
	waitInflightZero(t, perOp, 5*time.Second)
	waitInflightZero(t, batched, 5*time.Second)
	if done.Load() != 2*total {
		t.Fatalf("completed %d, want %d", done.Load(), 2*total)
	}
	ps, bs := perOp.Stats(), batched.Stats()
	if ps.Submits != total || bs.Submits != total {
		t.Fatalf("submits = %d/%d, want %d each", ps.Submits, bs.Submits, total)
	}
	if ps.Doorbells != total {
		t.Fatalf("per-op doorbells = %d, want %d", ps.Doorbells, total)
	}
	if want := int64(total / batch); bs.Doorbells != want {
		t.Fatalf("batched doorbells = %d, want %d", bs.Doorbells, want)
	}
	if bs.Doorbells*batch > ps.Doorbells {
		t.Fatalf("no amortization: batched %d vs per-op %d", bs.Doorbells, ps.Doorbells)
	}
}

func TestSubmitBatchAfterClose(t *testing.T) {
	d := NewDevice(DeviceSpec{})
	inst, _ := d.AllocInstance()
	d.Close()
	n, err := inst.SubmitBatch(batchOf(3, OpRSA, nil))
	if n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after close = (%d, %v), want (0, ErrClosed)", n, err)
	}
}

func TestSubmitBatchValidation(t *testing.T) {
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
	mustPanic("nil work", func() {
		inst.SubmitBatch([]Request{{Op: OpRSA, Work: func() (any, error) { return nil, nil }}, {Op: OpRSA}})
	})
	mustPanic("bad op", func() {
		inst.SubmitBatch([]Request{{Op: OpType(99), Work: func() (any, error) { return nil, nil }}})
	})
	// Validation rejects the whole batch before touching the ring.
	if st := inst.Stats(); st != (InstanceStats{}) {
		t.Fatalf("failed validation touched stats: %+v", st)
	}
}

// BenchmarkSubmitBatch measures per-op submit cost at increasing batch
// sizes; the CI bench-smoke step executes it once to keep the batched path
// compiling and running.
func BenchmarkSubmitBatch(b *testing.B) {
	for _, size := range []int{1, 4, 16, 48} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			d := NewDevice(DeviceSpec{RingCapacity: 256})
			defer d.Close()
			inst, err := d.AllocInstance()
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]Request, size)
			for i := range reqs {
				reqs[i] = Request{Op: OpRSA, Work: func() (any, error) { return nil, nil }}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				pending := reqs
				for len(pending) > 0 {
					n, err := inst.SubmitBatch(pending)
					pending = pending[n:]
					if err != nil {
						if !errors.Is(err, ErrRingFull) {
							b.Fatal(err)
						}
						inst.Poll(0)
					}
				}
			}
			b.StopTimer()
			for inst.Inflight() > 0 {
				inst.Poll(0)
			}
			if st := inst.Stats(); st.Submits > 0 {
				b.ReportMetric(float64(st.Doorbells)/float64(st.Submits), "doorbells/op")
			}
		})
	}
}

// TestPendingsRecycled: requests in flight reuse their instance's pending
// records. Across rounds of single and batched submissions served by four
// engines (run under -race), every callback fires once, with its own
// request's result; and once warm, a Submit/Poll round trip allocates
// nothing.
func TestPendingsRecycled(t *testing.T) {
	d := newTestDevice(t, DeviceSpec{EnginesPerEndpoint: 4, RingCapacity: 8})
	inst, err := d.AllocInstance()
	if err != nil {
		t.Fatal(err)
	}
	const perRound = 8
	for round := 0; round < 200; round++ {
		var got [perRound]atomic.Int64
		reqs := make([]Request, perRound)
		for i := range reqs {
			want := int64(round*perRound + i + 1)
			reqs[i] = Request{
				Op:       OpPRF,
				Work:     func() (any, error) { return want, nil },
				Callback: func(r Response) { got[i].Add(r.Result.(int64)) },
			}
		}
		for i := range reqs[:perRound/2] {
			if err := inst.Submit(reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := inst.SubmitBatch(reqs[perRound/2:]); n != perRound/2 || err != nil {
			t.Fatalf("SubmitBatch = (%d, %v)", n, err)
		}
		waitInflightZero(t, inst, 5*time.Second)
		for i := range got {
			if g, want := got[i].Load(), int64(round*perRound+i+1); g != want {
				t.Fatalf("round %d request %d: callbacks summed %d, want one delivery of %d", round, i, g, want)
			}
		}
	}

	req := Request{Op: OpPRF, Work: func() (any, error) { return nil, nil }, Callback: func(Response) {}}
	if n := testing.AllocsPerRun(100, func() {
		if err := inst.Submit(req); err != nil {
			t.Fatal(err)
		}
		for inst.Poll(0) == 0 {
			runtime.Gosched()
		}
	}); n != 0 {
		t.Fatalf("a Submit/Poll round trip allocates %v objects, want 0", n)
	}
}
